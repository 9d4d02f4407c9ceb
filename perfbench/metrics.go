package main

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"
	"time"

	"vsystem/internal/trace"
)

// metricDef declares one reported metric. METRICS.md explains each.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics an untraced run reports and a change may not
// worsen beyond its bound: what a user of the modelled system waits for,
// in virtual time (exact for a seed), and what the simulator costs, in
// host time. Each must be produced by every workload, never be zero, and
// hold steady from run to run; the other user metrics and the simulator's
// speed are reported with the per-layer ones (METRICS.md says why each is
// there).
var endToEnd = []metricDef{
	{"turnaround_p50_ms", "ms", "lower"},
	{"turnaround_p95_ms", "ms", "lower"},
	{"host_mem_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// hostShareLayers are the packages host time is attributed to.
var hostShareLayers = []string{"sim", "cpu", "kernel", "ipc", "ethernet", "mem", "progmgr", "core", "runtime"}

// unboundUser are the user metrics that cannot carry a bound: the
// simulator's speed, which moves with the shared machine's load far more
// than a bound allows, and the virtual-time metrics that some workload
// does not produce, produces as zero, or samples too sparsely to hold
// steady from seed to seed. Every run prints them; the traced run's JSON
// carries them with the per-layer metrics.
var unboundUser = []metricDef{
	{"vs_per_host_s", "vs/s", "higher"},
	{"start_p50_ms", "ms", "lower"},
	{"start_p95_ms", "ms", "lower"},
	{"freeze_p50_ms", "ms", "lower"},
	{"freeze_p95_ms", "ms", "lower"},
	{"evict_p50_ms", "ms", "lower"},
	{"unavail_ms", "ms", "lower"},
	{"fail_share", "ratio", "lower"},
}

// perLayer are the metrics a traced run reports.
var perLayer = concat(unboundUser, []metricDef{
	// sim, cpu, kernel.
	{"kernel.dispatch_per_host_vs", "count/vs", "lower"},
	{"sim.host_ns_per_dispatch", "ns", "lower"},
	{"sim.live_tasks_peak", "count", "lower"},
	{"kernel.cpu_util_mean", "ratio", "lower"},
	{"kernel.frozen_ms", "ms", "lower"},
	// ethernet.
	{"ethernet.frames", "count", "lower"},
	{"ethernet.mb", "MB", "lower"},
	{"ethernet.busy_share", "ratio", "lower"},
	{"ethernet.dropped", "count", "lower"},
	{"ethernet.broadcasts", "count", "lower"},
	// ipc.
	{"ipc.tx_packets", "count", "lower"},
	{"ipc.retx_share", "ratio", "lower"},
	{"ipc.locates", "count", "lower"},
	{"ipc.reply_pendings", "count", "lower"},
	// sched.
	{"sched.warm_share", "ratio", "higher"},
	{"sched.multicasts_per_query", "ratio", "lower"},
	{"sched.probe_fail_share", "ratio", "lower"},
	{"sched.select_p50_ms", "ms", "lower"},
	// fileserver, progmgr.
	{"fileserver.kb_per_exec", "KB", "lower"},
	{"progmgr.create_load_p50_ms", "ms", "lower"},
	// core migration, mem.
	{"migrate.rounds_mean", "count", "lower"},
	{"migrate.residual_kb_p50", "KB", "lower"},
	{"mem.dirty_kb_round_p50", "KB", "lower"},
	{"migrate.wire_share", "ratio", "lower"},
	{"migrate.window_stalls", "count", "lower"},
	{"migrate.kernel_ms_p50", "ms", "lower"},
	{"migrate.postswap_faults", "count", "lower"},
	{"phase.select_ms", "ms", "lower"},
	{"phase.precopy_ms", "ms", "lower"},
	{"phase.residue_ms", "ms", "lower"},
	{"phase.swap_ms", "ms", "lower"},
	{"phase.rebind_ms", "ms", "lower"},
	// rsm, supervision.
	{"rsm.commits_per_exec", "ratio", "lower"},
	{"rsm.elections", "count", "lower"},
	{"rsm.failovers", "count", "lower"},
	{"sup.lease_renews", "count", "lower"},
	{"sup.lease_expires", "count", "lower"},
	{"sup.exec_restarts", "count", "lower"},
	// The traced run's own cost.
	{"trace.overhead", "ratio", "lower"},
}, hostShareDefs())

func concat(lists ...[]metricDef) []metricDef {
	var out []metricDef
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}

func hostShareDefs() []metricDef {
	var out []metricDef
	for _, l := range hostShareLayers {
		out = append(out, metricDef{"host_share." + l, "ratio", "lower"})
	}
	return out
}

// userStats are a run's user-visible results, all in virtual time.
type userStats struct {
	start, turnaround, freeze, evict sample // ms
	unavail                          float64
	ops                              opTally
}

// users derives the user-visible results from the benchmark's spans.
func (b *bench) users() userStats {
	var u userStats
	for _, s := range b.spans {
		switch {
		case s.Name == "exec" && s.ok():
			u.start = append(u.start, s.End.Sub(b.spans[s.Parent].Start).Seconds()*1000)
		case s.Name == "wait" && s.ok():
			u.turnaround = append(u.turnaround, s.End.Sub(b.spans[s.Parent].Start).Seconds()*1000)
		case s.Name == "migrate" && s.ok():
			u.evict = append(u.evict, s.ms())
			if s.Report != nil {
				u.freeze = append(u.freeze, ms(s.Report.FreezeTime))
			}
		}
	}
	// Unavailability after a leader kill: until the first exec started
	// after the kill has completed.
	for _, k := range b.kills {
		first := time.Duration(-1)
		for _, s := range b.spans {
			if s.Name == "exec" && s.ok() && s.Start > k {
				if d := s.End.Sub(k); first < 0 || d < first {
					first = d
				}
			}
		}
		if first < 0 {
			first = b.horizon - k.Duration() // never recovered within the run
		}
		u.unavail = max(u.unavail, ms(first))
	}
	u.ops = tally(b.spans)
	return u
}

func ms(d time.Duration) float64 { return d.Seconds() * 1000 }

// values returns the user metrics by name.
func (u userStats) values() map[string]float64 {
	st, ta, fr, ev := u.start.sorted(), u.turnaround.sorted(), u.freeze.sorted(), u.evict.sorted()
	return map[string]float64{
		"start_p50_ms":      percentile(st, 0.50),
		"start_p95_ms":      percentile(st, 0.95),
		"turnaround_p50_ms": percentile(ta, 0.50),
		"turnaround_p95_ms": percentile(ta, 0.95),
		"freeze_p50_ms":     percentile(fr, 0.50),
		"freeze_p95_ms":     percentile(fr, 0.95),
		"evict_p50_ms":      percentile(ev, 0.50),
		"unavail_ms":        u.unavail,
		"fail_share":        u.ops.share(),
	}
}

// sampleNotes states each timing's sample count and the highest
// percentile it supports.
func (u userStats) sampleNotes() []string {
	var out []string
	for _, s := range []struct {
		name string
		xs   sample
	}{{"start", u.start}, {"turnaround", u.turnaround}, {"freeze", u.freeze}, {"evict", u.evict}} {
		tail := "none"
		if p := highestTail(len(s.xs)); p > 0 {
			tail = fmt.Sprintf("p%g", p*100)
		}
		out = append(out, fmt.Sprintf("%s: n=%d, highest percentile with >=%d samples beyond: %s",
			s.name, len(s.xs), minTail, tail))
	}
	return out
}

// digest hashes every simulated statistic of a run: the benchmark's spans,
// each migration report, the trace bus's event counts, its migration phase
// spans and every gathered layer counter. A change meant only to make the
// simulator faster must leave it unchanged.
func (b *bench) digest() string {
	h := sha256.New()
	for _, s := range b.spans {
		if !s.userOp() && s.Name != "job" {
			continue // traced children exist only in traced runs
		}
		fmt.Fprintf(h, "%s %d %d %d %v %v %v\n", s.Name, s.Job, s.Start, s.End, s.Done, s.Err, s.Gone)
		if s.Report != nil {
			fmt.Fprintf(h, "%+v\n", *s.Report)
		}
	}
	for k := trace.EvFrameTx; k <= trace.EvFailover; k++ {
		fmt.Fprintf(h, "%v=%d\n", k, b.c.Trace.Count(k))
	}
	for _, s := range b.c.Trace.Spans() {
		fmt.Fprintln(h, s)
	}
	for _, m := range b.c.Trace.Gather() {
		fmt.Fprintf(h, "%s/%s=%v\n", m.Scope, m.Name, m.Value)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// gathered sums a gathered counter across every source whose scope has
// the prefix.
func gathered(ms []trace.Metric, scopePrefix, name string) (sum float64, n int) {
	for _, m := range ms {
		if strings.HasPrefix(m.Scope, scopePrefix) && m.Name == name {
			sum += m.Value
			n++
		}
	}
	return sum, n
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layers derives the per-layer metrics of a finished traced run. untraced
// is the host time of the same scenario run without tracing.
func (b *bench) layers(traced, untraced time.Duration, shares map[string]float64) map[string]float64 {
	c := b.c
	vs := c.Sim.Now().Seconds()
	gm := c.Trace.Gather()
	out := map[string]float64{}

	dispatches := float64(c.Trace.Count(trace.EvDispatch))
	out["kernel.dispatch_per_host_vs"] = ratio(dispatches, float64(len(c.Nodes)+len(c.FSHosts))*vs)
	out["sim.host_ns_per_dispatch"] = ratio(float64(untraced.Nanoseconds()), dispatches)
	out["sim.live_tasks_peak"] = float64(b.livePeak)
	util, nutil := gathered(gm, "host/ws", "cpu_util")
	out["kernel.cpu_util_mean"] = ratio(util, float64(nutil))
	out["kernel.frozen_ms"], _ = gathered(gm, "host/", "frozen_ms")

	bs := c.Bus.Stats()
	out["ethernet.frames"] = float64(bs.Frames)
	out["ethernet.mb"] = float64(bs.Bytes) / (1 << 20)
	out["ethernet.busy_share"] = ratio(bs.BusyTime.Seconds(), vs)
	out["ethernet.dropped"] = float64(bs.Dropped)
	out["ethernet.broadcasts"] = float64(bs.Broadcasts)

	tx, _ := gathered(gm, "host/", "tx_packets")
	retx, _ := gathered(gm, "host/", "retransmits")
	out["ipc.tx_packets"] = tx
	out["ipc.retx_share"] = ratio(retx, tx)
	out["ipc.locates"], _ = gathered(gm, "host/", "locates")
	out["ipc.reply_pendings"], _ = gathered(gm, "host/", "reply_pendings")

	var q, warm, mc, probes, pfail float64
	for _, n := range c.Nodes {
		st := n.Selector.Stats()
		q += float64(st.Queries)
		warm += float64(st.WarmPicks)
		mc += float64(st.Multicasts)
		probes += float64(st.Probes)
		pfail += float64(st.ProbeFailures)
	}
	out["sched.warm_share"] = ratio(warm, q)
	out["sched.multicasts_per_query"] = ratio(mc, q)
	out["sched.probe_fail_share"] = ratio(pfail, probes)

	// Select children and the exec time left once selection is taken out:
	// environment set-up plus image load at the chosen manager.
	var sel, createLoad sample
	selOf := map[int]float64{}
	for _, s := range b.spans {
		if s.Name == "select" {
			sel = append(sel, s.ms())
			if s.Parent >= 0 && b.spans[s.Parent].Name == "exec" {
				selOf[s.Parent] = s.ms()
			}
		}
	}
	var execs float64
	for i, s := range b.spans {
		if s.Name == "exec" && s.ok() {
			execs++
			if d, ok := selOf[i]; ok {
				createLoad = append(createLoad, s.ms()-d)
			}
		}
	}
	out["sched.select_p50_ms"] = percentile(sel.sorted(), 0.5)
	out["progmgr.create_load_p50_ms"] = percentile(createLoad.sorted(), 0.5)
	var fsBytes float64
	for _, h := range c.FSHosts {
		tx, rx := h.NIC.ByteCounters()
		fsBytes += float64(tx + rx)
	}
	out["fileserver.kb_per_exec"] = ratio(fsBytes/1024, execs)

	var rounds, wire, logical, stalls, faults float64
	var residual, dirty, kern sample
	nmig := 0
	for _, s := range b.spans {
		if s.Name != "migrate" || !s.ok() || s.Report == nil {
			continue
		}
		r := s.Report
		nmig++
		rounds += float64(len(r.Rounds))
		residual = append(residual, r.ResidualKB)
		for _, rd := range r.Rounds[min(1, len(r.Rounds)):] {
			dirty = append(dirty, rd.KB)
		}
		kern = append(kern, ms(r.KernelTime))
		wire += float64(r.WireBytes)
		logical += float64(r.BytesCopied)
		stalls += float64(r.WindowStalls)
		faults += float64(r.PostSwapFaults)
	}
	out["migrate.rounds_mean"] = ratio(rounds, float64(nmig))
	out["migrate.residual_kb_p50"] = percentile(residual.sorted(), 0.5)
	out["mem.dirty_kb_round_p50"] = percentile(dirty.sorted(), 0.5)
	out["migrate.wire_share"] = ratio(wire, logical)
	out["migrate.window_stalls"] = stalls
	out["migrate.kernel_ms_p50"] = percentile(kern.sorted(), 0.5)
	out["migrate.postswap_faults"] = faults
	for ph, self := range b.phaseSelf() {
		out["phase."+ph+"_ms"] = ratio(self, float64(nmig))
	}

	out["rsm.commits_per_exec"] = ratio(float64(c.Trace.Count(trace.EvCommit)), execs)
	out["rsm.elections"] = float64(c.Trace.Count(trace.EvElect))
	out["rsm.failovers"] = float64(c.Trace.Count(trace.EvFailover))
	out["sup.lease_renews"], _ = gathered(gm, "sup/", "lease_renews")
	out["sup.lease_expires"], _ = gathered(gm, "sup/", "lease_expires")
	out["sup.exec_restarts"], _ = gathered(gm, "sup/", "exec_restarts")

	out["trace.overhead"] = ratio(traced.Seconds(), untraced.Seconds())
	out["vs_per_host_s"] = ratio(vs, untraced.Seconds())
	for _, l := range hostShareLayers {
		out["host_share."+l] = shares[l]
	}
	for k, v := range b.users().values() {
		out[k] = v
	}
	return out
}

// phaseSelf sums each migration phase's self time in milliseconds: a
// phase span's length minus the part of it its child phase spans (of the
// same logical host) cover. Only phase children the traced run recorded
// count.
func (b *bench) phaseSelf() map[string]float64 {
	var ph []span
	for _, s := range b.spans {
		if strings.HasPrefix(s.Name, "phase.") {
			ph = append(ph, s)
		}
	}
	sort.SliceStable(ph, func(i, j int) bool { return ph[i].Start < ph[j].Start })
	out := map[string]float64{}
	for i, s := range ph {
		self := s.End.Sub(s.Start)
		for j, c := range ph {
			if j != i && c.LH == s.LH && c.Start >= s.Start && c.End <= s.End &&
				c.End.Sub(c.Start) < s.End.Sub(s.Start) {
				self -= c.End.Sub(c.Start)
			}
		}
		out[strings.TrimPrefix(s.Name, "phase.")] += ms(self)
	}
	return out
}
