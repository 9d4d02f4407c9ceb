package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"vsystem/internal/core"
	"vsystem/internal/ethernet"
	"vsystem/internal/image"
	"vsystem/internal/params"
	"vsystem/internal/sched"
	"vsystem/internal/sim"
	"vsystem/internal/workload"
)

// scenario is one benchmark workload: build boots a cluster for the seed
// and arms every agent and fault, so the run depends on the seed alone.
type scenario struct {
	name  string
	build func(seed int64) *bench
}

var scenarios = []scenario{
	{"farm", farm},
	{"evict", evict},
	{"failover", failover},
}

func findScenario(name string) (scenario, bool) {
	for _, s := range scenarios {
		if s.name == name {
			return s, true
		}
	}
	return scenario{}, false
}

// mixedClasses is the job mix of the open-loop workloads: short
// interactive commands and multi-second batch compilations.
func mixedClasses() []workload.JobClass {
	return []workload.JobClass{workload.LatencyCritical(), workload.BestEffort()}
}

// farm is the compile farm: 100 workstations, random-2 selection, no loss,
// and 10 home submitters sending 240 open-loop jobs at 4 jobs/s.
//
// Why: this is where sched, file-server image reads, program-manager
// create and Ethernet contention do the work, and where 90 mostly idle
// hosts make the engine's cost per host visible (an idle 100-host cluster
// costs most of a loaded run's host time). It barely touches migration,
// dirty-page tracking or consensus. The rate sits well below the file
// server's knee: at 8 jobs/s some seeds collapse into exec timeouts and
// host-down verdicts (5–12 % of operations failed on 3 of 6 seeds), and
// at 5–6 jobs/s some seeds still hit congestion episodes that move the
// median turnaround by 8–12 % between seeds.
func farm(seed int64) *bench {
	const hosts, submitters, jobs, rate = 100, 10, 240, 4
	classes := mixedClasses()
	arr := arrivals(classes, jobs, rate, seed)
	imgs := workload.OpenLoop{Classes: classes}.Images()
	b := &bench{}
	timed(&b.setup, func() {
		b.c = core.NewCluster(core.Options{
			Workstations: hosts, Seed: seed,
			Select: sched.RandomK{K: params.SelectRandomK},
		})
		for _, img := range imgs {
			b.c.Install(img)
		}
	})
	// Load beacons are staggered 10 ms per host: start the stream once
	// every host has advertised.
	warmup := hosts*10*time.Millisecond + time.Second
	for i, ar := range arr {
		b.submit(b.c.Node(i%submitters), i, warmup+ar.At, ar.Program, 0)
	}
	b.horizon = warmup + arr[len(arr)-1].At + 30*time.Second
	return b
}

// submit arms one open-loop job: due at the given instant, executed `@ *`
// with the given restart budget and waited for, each call in its own span.
func (b *bench) submit(n *core.Node, job int, due time.Duration, prog string, restarts int) {
	b.agent(n, func(a *core.Agent) {
		a.Sleep(due)
		root := b.begin("job", job, -1, sim.Time(due))
		ex := b.begin("exec", job, root, a.Now())
		b.spans[ex].Host = uint16(n.Host.NIC.MAC())
		j, err := a.ExecR(prog, nil, "*", restarts)
		b.end(ex, a.Now(), err)
		if err != nil {
			b.end(root, a.Now(), err)
			return
		}
		w := b.begin("wait", job, root, a.Now())
		code, err := a.Wait(j)
		if err == nil && code != 0 {
			err = fmt.Errorf("exit code %d", code)
		}
		b.end(w, a.Now(), err)
		b.end(root, a.Now(), err)
	})
}

// evictUsers is how many users the evict workload runs, one per home
// workstation, each with one Table 4-1 program.
const evictUsers = 8

// evict is the owner-returns workload: 16 workstations, first-response
// selection, the default pre-copy policy and 1 % frame loss. Eight users
// each run one Table 4-1 program `@ *` over and over for 100 s; the owner
// of the machine the guest landed on returns every 2–5 s and evicts it
// with Migrate until it exits.
//
// Why: this is where core migration and its copy policy, dirty-page
// tracking in mem, the ipc bulk-copy window with retransmission, kernel
// freeze and first-response multicast do the work. It barely touches the
// file server or consensus. One program per user keeps the program mix
// identical for every seed: drawing each user's programs at random moved
// the median freeze and eviction times by 30–50 % between seeds. The run
// makes about 200 migrations, enough for freeze_p95_ms to have ten
// samples beyond it. Sixteen users overload the sixteen hosts: half the
// migrations then find no destination.
//
// Known defect, left visible: params.WaitMaxMoves caps the total moves one
// Wait follows, so a guest legitimately evicted more than that many times
// loses its waiter with core.ErrTooManyMoves. Those waits count in
// fail_share; the eviction cadence is the owner's, not tuned around it.
func evict(seed int64) *bench {
	const hosts = 16
	const warmup = time.Second
	const cutoff = warmup + 100*time.Second // no new job starts after this
	// Every job runs its own copy of the user's program, named for the
	// user and the job, so each job's final line can be told apart. A
	// program runs for at least its DurationMs, which bounds how many one
	// user can start before the cutoff.
	specs, paper := workload.PaperSpecs(), workload.PaperImages()
	progs := make([][]*image.Image, evictUsers)
	for u := range progs {
		spec, pad := specs[u%len(specs)], paper[u%len(paper)].Pad
		jobs := int((cutoff-warmup)/(time.Duration(spec.DurationMs)*time.Millisecond)) + 1
		for k := 0; k < jobs; k++ {
			s := spec
			s.Name = fmt.Sprintf("%s-u%d-%d", spec.Name, u, k)
			progs[u] = append(progs[u], workload.Image(s, pad))
		}
	}
	b := &bench{}
	timed(&b.setup, func() {
		b.c = core.NewCluster(core.Options{Workstations: hosts, Seed: seed, LossRate: 0.01})
		for _, imgs := range progs {
			for _, img := range imgs {
				b.c.Install(img)
			}
		}
	})
	b.horizon = cutoff + 60*time.Second
	next := 0
	for u := 0; u < evictUsers; u++ {
		rng := rand.New(rand.NewSource(seed*1000 + int64(u)))
		gaps := make([]time.Duration, 256)
		for i := range gaps {
			gaps[i] = 2*time.Second + time.Duration(rng.Int63n(int64(3*time.Second)))
		}
		start := warmup + time.Duration(rng.Int63n(int64(2*time.Second)))
		b.owner(b.c.Node(u), start, cutoff, progs[u], gaps, &next)
	}
	b.verify = b.checkEvictOutput
	return b
}

// evictee is the job a user is currently running, shared between the
// user's agent (exec, wait) and the owner's agent (migrate).
type evictee struct {
	job      *core.Job
	id, root int
	exited   bool // the user's Wait returned
	gone     bool // a migrate found the program exited
	waitLost bool // the user's Wait failed; only the owner can see the exit
}

// owner arms one user's closed loop on node n, running the programs in
// turn from start until cutoff (an exec that fails is retried with the
// same program), and the owner agent that evicts the user's current guest
// after each of the gaps in turn.
func (b *bench) owner(n *core.Node, start, cutoff time.Duration, progs []*image.Image, gaps []time.Duration, next *int) {
	var cur *evictee
	stopped := false
	b.agent(n, func(a *core.Agent) {
		defer func() { stopped = true }()
		a.Sleep(start)
		for k := 0; k < len(progs) && a.Now().Duration() < cutoff; {
			id := *next
			*next++
			root := b.begin("job", id, -1, a.Now())
			ex := b.begin("exec", id, root, a.Now())
			b.spans[ex].Host = uint16(n.Host.NIC.MAC())
			b.spans[ex].Prog = progs[k].Name
			j, err := a.ExecR(progs[k].Name, nil, "*", 0)
			b.end(ex, a.Now(), err)
			if err != nil {
				b.end(root, a.Now(), err)
				a.Sleep(time.Second)
				continue
			}
			k++
			e := &evictee{job: j, id: id, root: root}
			cur = e
			w := b.begin("wait", id, root, a.Now())
			code, err := a.Wait(j)
			if err == nil && code != 0 {
				err = fmt.Errorf("exit code %d", code)
			}
			b.end(w, a.Now(), err)
			e.exited = true
			if err != nil {
				// The waiter is lost but the program runs on; the user
				// starts nothing new until the owner sees it exit.
				e.waitLost = true
				for !e.gone {
					a.Sleep(200 * time.Millisecond)
				}
			}
			b.end(root, a.Now(), err)
		}
	})
	b.agent(n, func(a *core.Agent) {
		for g := 0; ; g++ {
			for cur == nil || cur.gone || (cur.exited && !cur.waitLost) {
				if stopped {
					return
				}
				a.Sleep(100 * time.Millisecond)
			}
			e := cur
			a.Sleep(gaps[g%len(gaps)])
			if e.exited && !e.waitLost {
				continue
			}
			m := b.begin("migrate", e.id, e.root, a.Now())
			b.spans[m].LH = e.job.LHID
			rep, err := a.Migrate(e.job, false)
			b.end(m, a.Now(), err)
			b.spans[m].Report = rep
			if isGone(err) {
				b.spans[m].Gone = true
				e.gone = true
			}
		}
	})
}

// checkEvictOutput verifies the evict users' display output: every
// program prints one final line when it exits, so each started job's own
// final line must show exactly once if the job was seen to exit (by its
// Wait, or by a migrate finding it gone) and at most once otherwise, and
// no other program may print one.
func (b *bench) checkEvictOutput() []string {
	exited := map[int]bool{}
	for _, s := range b.spans {
		if (s.Name == "wait" && s.ok()) || s.Gone {
			exited[s.Job] = true
		}
	}
	done := map[string]int{}
	for _, n := range b.c.Nodes {
		for _, ln := range n.Display.Lines() {
			if name, rest, ok := strings.Cut(ln, ": "); ok && strings.HasPrefix(rest, "done after ") {
				done[name]++
			}
		}
	}
	var bad []string
	for _, s := range b.spans {
		if s.Name != "exec" || !s.ok() {
			continue
		}
		got := done[s.Prog]
		delete(done, s.Prog)
		if got > 1 || (exited[s.Job] && got == 0) {
			bad = append(bad, fmt.Sprintf("job %d (%s): %d final lines, exited %v", s.Job, s.Prog, got, exited[s.Job]))
		}
	}
	for name, got := range done {
		bad = append(bad, fmt.Sprintf("%s: %d final lines from a program no exec started", name, got))
	}
	sort.Strings(bad)
	return bad
}

// failover is the replicated-home workload: 30 workstations with a 3-member
// home group and a 3-replica file service, random-2 selection, and 360
// supervised jobs (default restart budget) arriving open-loop at 4 jobs/s
// from 10 submitters outside the home group, which are never crashed. A
// workstation outside the home group that hosts a guest crashes every 3 s
// (and reboots 2 s later); once mid-stream the home-group leader is killed
// and restarted, and later the file-server leader is too.
//
// Why: farm exercises the same exec path through reads alone; here every
// supervise, exit and restart is a consensus write, so a change to rsm or
// supervision shows here and must leave farm flat. Each job prints
// progress lines home, so the run also checks that every supervised
// session's output stays ordered and exactly-once across re-executions.
// The stream lasts about 90 virtual seconds; at twice that length the
// modelled system loses session output and leaves waits hanging on every
// seed tried (METRICS.md, known defects).
func failover(seed int64) *bench {
	const hosts, homeN, fsN, submitters, jobs, rate = 30, 3, 3, 10, 360, 4
	classes := mixedClasses()
	arr := arrivals(classes, jobs, rate, seed)
	// One image per job, so each session's lines name their job.
	imgs := make([]*image.Image, len(arr))
	for i, ar := range arr {
		cl := classes[ar.Class]
		imgs[i] = workload.Image(workload.Spec{
			Name: sessionName(i), HotKB: cl.HotKB, HotRateKBps: cl.HotRateKBps,
			DurationMs: ar.ServiceMs, OutputEveryMs: outputEveryMs,
		}, cl.PadKB*1024)
	}
	b := &bench{}
	timed(&b.setup, func() {
		b.c = core.NewCluster(core.Options{
			Workstations: hosts, Seed: seed,
			Select:        sched.RandomK{K: params.SelectRandomK},
			ReplicateHome: homeN, ReplicateFS: fsN,
		})
		for _, img := range imgs {
			b.c.Install(img)
		}
	})
	const warmup = 3 * time.Second // home and file-server elections settle
	for i, ar := range arr {
		b.submit(b.c.Node(homeN+i%submitters), i, warmup+ar.At, imgs[i].Name, params.ExecMaxRestarts)
	}
	stream := arr[len(arr)-1].At
	b.horizon = warmup + stream + 40*time.Second

	c := b.c
	rng := rand.New(rand.NewSource(seed*7919 + 1))
	victims := c.Nodes[homeN+submitters:]
	for at := warmup + 3*time.Second; at < warmup+stream; at += 3 * time.Second {
		c.Sim.After(at, func() {
			var hosting, up []*core.Node
			for _, n := range victims {
				if n.Host.Crashed() {
					continue
				}
				up = append(up, n)
				for _, lh := range n.Host.LHs() {
					if lh.Guest() {
						hosting = append(hosting, n)
						break
					}
				}
			}
			pool := hosting
			if len(pool) == 0 {
				pool = up
			}
			if len(pool) == 0 {
				return
			}
			mac := pool[rng.Intn(len(pool))].Host.NIC.MAC()
			c.Fault.Crash(mac)
			c.Fault.RestartAfter(2*time.Second, mac)
		})
	}
	b.killLeaderAt(warmup+stream/3, func() ethernet.MAC {
		if i := c.HomeLeaderIdx(); i >= 0 {
			return c.Nodes[i].Host.NIC.MAC()
		}
		return 0
	})
	b.killLeaderAt(warmup+2*stream/3, func() ethernet.MAC {
		for i, fs := range c.FSReps {
			if !c.FSHosts[i].Crashed() && fs.Replica() != nil && fs.Replica().IsLeader() {
				return c.FSHosts[i].NIC.MAC()
			}
		}
		return 0
	})
	b.verify = func() []string { return b.checkSessions(arr) }
	return b
}

// outputEveryMs is the failover jobs' progress-line period.
const outputEveryMs = 200

func sessionName(job int) string { return fmt.Sprintf("fo%04d", job) }

// killLeaderAt kills whichever station leader() names at the instant (or
// as soon after as a leader exists) and restarts it 5 s later, recording
// the kill instant for the unavailability metric.
func (b *bench) killLeaderAt(at time.Duration, leader func() ethernet.MAC) {
	c := b.c
	var try func(left int)
	try = func(left int) {
		if mac := leader(); mac != 0 {
			b.kills = append(b.kills, c.Sim.Now())
			c.Fault.Crash(mac)
			c.Fault.RestartAfter(5*time.Second, mac)
			return
		}
		if left > 0 {
			c.Sim.After(200*time.Millisecond, func() { try(left - 1) })
		}
	}
	c.Sim.After(at, func() { try(25) })
}

// checkSessions verifies every failover session's display output: the
// lines of one job must be its progress ticks in order, each exactly once,
// and a job whose Wait succeeded must show all of them and its final line.
func (b *bench) checkSessions(arr []workload.Arrival) []string {
	lines := map[string][]string{}
	for _, n := range b.c.Nodes {
		for _, ln := range n.Display.Lines() {
			if name, rest, ok := strings.Cut(ln, ": "); ok {
				lines[name] = append(lines[name], rest)
			}
		}
	}
	waited := map[int]bool{}
	for _, s := range b.spans {
		if s.Name == "wait" && s.ok() {
			waited[s.Job] = true
		}
	}
	var bad []string
	for i, ar := range arr {
		name := sessionName(i)
		want, got := sessionLines(ar.ServiceMs), lines[name]
		if len(got) > len(want) {
			bad = append(bad, fmt.Sprintf("%s: %d display lines, want at most %d", name, len(got), len(want)))
			continue
		}
		for k := range got {
			if got[k] != want[k] {
				bad = append(bad, fmt.Sprintf("%s: line %d is %q, want %q", name, k, got[k], want[k]))
				break
			}
		}
		if waited[i] && len(got) != len(want) {
			bad = append(bad, fmt.Sprintf("%s: exited but showed %d of %d lines", name, len(got), len(want)))
		}
	}
	return bad
}

// sessionLines is the output a failover job of the given service time
// prints, without its name prefix. The workload body numbers its progress
// lines by 10 ms tick.
func sessionLines(serviceMs uint32) []string {
	var out []string
	for t := uint32(outputEveryMs); t <= serviceMs; t += outputEveryMs {
		out = append(out, fmt.Sprintf("tick %d", t/10))
	}
	return append(out, fmt.Sprintf("done after %d ms", serviceMs))
}
