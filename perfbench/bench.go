package main

import (
	"errors"
	"fmt"
	"syscall"
	"time"

	"vsystem/internal/core"
	"vsystem/internal/kernel"
	"vsystem/internal/sim"
	"vsystem/internal/vid"
)

// span is one interval of virtual time the benchmark recorded around a
// call into the cluster (or, in a traced run, a child it derived from the
// cluster's own trace events).
type span struct {
	Name   string // job, exec, wait, migrate (user operations); select, phase.* (traced children)
	Job    int
	Parent int // index of the parent span; -1 for a root
	Start  sim.Time
	End    sim.Time
	Done   bool  // the call returned before the run ended
	Err    error // the call's error, if it returned one
	// Gone marks a migrate that found the program already exited: the
	// owner's eviction raced the program's own exit, and the answer is
	// correct.
	Gone   bool
	Report *core.MigrationReport // migrate only
	Host   uint16                // exec, select: the selecting station
	Prog   string                // evict exec: the program it started
	LH     vid.LHID              // migrate, phase.*: the program's logical host
}

// userOp reports whether the span is one of the operations fail_share
// counts.
func (s span) userOp() bool {
	return s.Name == "exec" || s.Name == "wait" || s.Name == "migrate"
}

// failed: the operation returned an error, or never returned at all.
func (s span) failed() bool { return !s.Done || (s.Err != nil && !s.Gone) }

// ok: the operation returned successfully (an exited-program migrate is
// neither ok nor failed for the latency metrics: it moved nothing).
func (s span) ok() bool { return s.Done && s.Err == nil && !s.Gone }

func (s span) ms() float64 { return s.End.Sub(s.Start).Seconds() * 1000 }

// bench is one built scenario: a booted cluster with its agents and fault
// schedule armed, ready to run for horizon of virtual time.
type bench struct {
	c       *core.Cluster
	spans   []span
	horizon time.Duration
	// setup is the host time of NewCluster plus every Install.
	setup time.Duration
	kills []sim.Time // leader-kill instants (unavailability windows)
	// verify checks the workload's own outputs after the run and returns
	// every problem found.
	verify   func() []string
	livePeak int
	// agents counts the benchmark's agents still running; the run ends
	// early, at a deterministic instant, once all have returned.
	agents int
}

// agent spawns one of the benchmark's agents on node n.
func (b *bench) agent(n *core.Node, fn func(a *core.Agent)) {
	b.agents++
	n.Agent(func(a *core.Agent) {
		defer func() { b.agents-- }()
		fn(a)
	})
}

// begin opens a span at the caller's current virtual time.
func (b *bench) begin(name string, job, parent int, at sim.Time) int {
	b.spans = append(b.spans, span{Name: name, Job: job, Parent: parent, Start: at})
	return len(b.spans) - 1
}

// end closes span i.
func (b *bench) end(i int, at sim.Time, err error) {
	b.spans[i].End, b.spans[i].Done, b.spans[i].Err = at, true, err
}

// runStep is the virtual-time chunk between live-task samples; chunking
// Run does not change the order in which the engine processes events.
const runStep = 100 * time.Millisecond

// run advances the cluster until every agent has returned, or to the
// horizon, and returns the wall-clock time it took: the time a user of the
// simulator waits, which an engine that spreads work over several
// processors would shorten.
func (b *bench) run() time.Duration {
	t0 := time.Now()
	for b.agents > 0 && b.c.Sim.Now().Duration() < b.horizon {
		b.c.Run(runStep)
		if n := b.c.Sim.LiveTasks(); n > b.livePeak {
			b.livePeak = n
		}
	}
	return time.Since(t0)
}

// teardown stops every task of the cluster so their goroutines exit and
// the cluster can be collected: a later set-up or run in the same process
// must not pay for this one's leftovers. Crashing the hosts kills their
// processes; each host's network daemon is no process, so it is caught
// (through a job deferred to it) and killed directly.
func (b *bench) teardown() {
	var daemons []*sim.Task
	hosts := append([]*kernel.Host(nil), b.c.FSHosts...)
	for _, n := range b.c.Nodes {
		hosts = append(hosts, n.Host)
	}
	for _, h := range hosts {
		if h.Crashed() {
			h.Restart()
		}
		h.IPC.Defer(func(t *sim.Task) { daemons = append(daemons, t) })
	}
	for len(daemons) < len(hosts) {
		b.c.Run(time.Millisecond)
	}
	for _, h := range hosts {
		h.Crash()
	}
	for _, t := range daemons {
		t.Kill()
	}
	b.c.Run(time.Millisecond)
}

// cpuTime is the CPU time the process has used so far, on every thread
// (the simulation and the garbage collector). Set-up time is measured in
// it rather than in wall-clock time: set-up is 1–50 ms of single-threaded
// work, and on a shared machine the time it spends
// waiting for a CPU would swamp it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timed measures a set-up step in CPU time.
func timed(d *time.Duration, fn func()) {
	t0 := cpuTime()
	fn()
	*d += cpuTime() - t0
}

// isGone reports whether a migrate error means the program no longer
// exists at its manager (it exited before the request was served).
func isGone(err error) bool {
	var ce vid.CodeError
	return errors.As(err, &ce) && uint16(ce) == vid.CodeNotFound
}
