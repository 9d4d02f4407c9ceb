package core

import (
	"testing"
	"time"

	"vsystem/internal/ethernet"
	"vsystem/internal/params"
	"vsystem/internal/progmgr"
	"vsystem/internal/progs"
	"vsystem/internal/sim"
	"vsystem/internal/trace"
	"vsystem/internal/vid"
)

// The heart of the PR: a session supervised by the replicated home group
// must survive the death of the group member that leads it. The home
// leader is killed mid-session, a successor takes over the lease worker
// from the committed registry, and when the hosting workstation then dies
// too, the successor — not the original (dead) supervisor — re-executes
// the program. Ticker output must stay gapless and duplicate-free: the
// exactly-once invariant across both failovers.
func TestHomeLeaderCrashSessionSurvives(t *testing.T) {
	c := boot(t, Options{Workstations: 6, Seed: 1, ReplicateHome: 3})
	c.Install(progs.Ticker(300))

	// Kill the home leader once the session is established.
	var leaderCrash, nextElect sim.Time
	c.Sim.At(c.Sim.Now().Add(5*time.Second), func() {
		idx := c.HomeLeaderIdx()
		if idx < 0 {
			t.Error("no home leader elected by 5s")
			return
		}
		leaderCrash = c.Sim.Now()
		c.Nodes[idx].Host.Crash()
	})
	// Record the next home-group election after the kill: the failover gap.
	c.Trace.Subscribe(func(ev trace.Event) {
		if ev.Kind == trace.EvElect && leaderCrash != 0 && nextElect == 0 &&
			ev.At > leaderCrash && ev.LH == vid.GroupHomeRSM.LH() {
			nextElect = ev.At
		}
	})
	// Then kill the hosting workstation: the *new* leader must recover the
	// session (the original supervisor is dead).
	c.Sim.At(c.Sim.Now().Add(11*time.Second), func() {
		c.Node(4).Host.Crash()
	})

	var code uint32
	var err error
	done := false
	c.Node(3).Agent(func(a *Agent) {
		a.Sleep(2500 * time.Millisecond) // let the group elect its first leader
		var job *Job
		if job, err = a.Exec("ticker300", nil, "ws4"); err == nil {
			code, err = a.Wait(job)
		}
		done = true
	})
	c.Run(4 * time.Minute)

	if !done {
		t.Fatal("agent never finished")
	}
	if err != nil {
		t.Fatalf("wait across home failover: %v", err)
	}
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	assertGapless(t, c.Node(3).Display.Lines(), 300)
	if got := c.Trace.Count(trace.EvExecRestart); got < 1 {
		t.Fatalf("EvExecRestart = %d, want ≥1 (new leader must re-execute)", got)
	}
	if nextElect == 0 {
		t.Fatal("no home re-election observed after the leader kill")
	}
	if gap := nextElect.Sub(leaderCrash); gap > params.RsmFailoverBudget {
		t.Fatalf("home failover took %v, budget %v", gap, params.RsmFailoverBudget)
	}
}

// Satellite: Agent.Wait held by the home leader when it dies must converge
// on the successor within the WaitMaxMoves redirect budget — the waiter is
// re-pointed at the group, lands on the new leader, and gets the exit.
func TestWaitSurvivesHomeFailoverMidWait(t *testing.T) {
	c := boot(t, Options{Workstations: 6, Seed: 2, ReplicateHome: 3})
	c.Install(progs.Ticker(300))

	// Crash the hosting workstation first so the session breaks and the
	// waiter is *held* by the home leader, then kill that leader while it
	// holds the waiter mid-recovery.
	c.Sim.At(c.Sim.Now().Add(6*time.Second), func() { c.Node(4).Host.Crash() })
	c.Sim.At(c.Sim.Now().Add(7*time.Second), func() {
		if idx := c.HomeLeaderIdx(); idx >= 0 {
			c.Nodes[idx].Host.Crash()
		}
	})

	var code uint32
	var err error
	done := false
	c.Node(3).Agent(func(a *Agent) {
		a.Sleep(2500 * time.Millisecond)
		var job *Job
		if job, err = a.Exec("ticker300", nil, "ws4"); err == nil {
			code, err = a.Wait(job)
		}
		done = true
	})
	c.Run(4 * time.Minute)

	if !done {
		t.Fatal("agent never finished")
	}
	if err != nil {
		t.Fatalf("wait across mid-wait home failover: %v", err)
	}
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	assertGapless(t, c.Node(3).Display.Lines(), 300)
}

// A group member whose agent cannot reach the home group (partitioned away
// mid-registration) must NOT fall back to a direct local Supervise: that
// would write the session into the replicated registry outside the log —
// present on one follower only, never lease-renewed (only the fenced
// leader acts), and baked into that replica's snapshots. Instead the
// record is queued and re-proposed through the group once it is reachable,
// after which the session is genuinely supervised: killing the hosting
// workstation must still trigger a leader-driven re-execution.
func TestMemberAgentPartitionedFromGroupQueuesSupervision(t *testing.T) {
	c := boot(t, Options{Workstations: 6, Seed: 1, ReplicateHome: 3})
	c.Install(progs.Ticker(300))

	// Cut member 0 (the agent's workstation) off from the other two group
	// members. Members 1 and 2 still form a majority and elect a leader;
	// node 0 keeps full connectivity to the file servers and to ws4, so the
	// exec itself succeeds — only the Supervise registration cannot land.
	mac0 := c.Node(0).Host.NIC.MAC()
	mac1 := c.Node(1).Host.NIC.MAC()
	mac2 := c.Node(2).Host.NIC.MAC()
	c.Bus.SetCut(func(src, dst ethernet.MAC) bool {
		return (src == mac0 && (dst == mac1 || dst == mac2)) ||
			(dst == mac0 && (src == mac1 || src == mac2))
	})
	// Heal after the agent has exhausted its group retries and queued the
	// record; the member's lease worker then re-proposes it to the leader.
	c.Sim.At(c.Sim.Now().Add(8*time.Second), func() { c.Bus.SetCut(nil) })
	// Kill the hosting workstation after the heal (but before the ticker
	// can finish): only a session that made it into the replicated
	// registry gets re-executed.
	c.Sim.At(c.Sim.Now().Add(10*time.Second), func() { c.Node(4).Host.Crash() })

	var code uint32
	var err error
	done := false
	c.Node(0).Agent(func(a *Agent) {
		a.Sleep(1 * time.Second)
		var job *Job
		if job, err = a.Exec("ticker300", nil, "ws4"); err == nil {
			code, err = a.Wait(job)
		}
		done = true
	})
	c.Run(4 * time.Minute)

	if !done {
		t.Fatal("agent never finished")
	}
	if err != nil {
		t.Fatalf("wait across queued supervision + host crash: %v", err)
	}
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	assertGapless(t, c.Node(0).Display.Lines(), 300)
	if got := c.Trace.Count(trace.EvExecRestart); got < 1 {
		t.Fatalf("EvExecRestart = %d, want ≥1 (queued record must reach the leader)", got)
	}
}

// The exit-side twin of the test above: a member's agent that cannot reach
// the home group must not record its job's exit in its own replica, which
// would again be a registry write outside the log. The job exits while
// member ws0 is cut off from the other two members, so the agent's
// PmNoteExited finds no leader. ws0's copy of the session must stay as it
// was until a committed entry changes it: after the heal, the leader's
// renewal sees the exit and commits it, and only that reaches ws0.
func TestMemberAgentPartitionedFromGroupLeavesExitToLog(t *testing.T) {
	c := boot(t, Options{Workstations: 6, Seed: 1, ReplicateHome: 3})
	ws0 := c.Node(0).PM
	mac0 := c.Node(0).Host.NIC.MAC()
	mac1 := c.Node(1).Host.NIC.MAC()
	mac2 := c.Node(2).Host.NIC.MAC()
	session := func(lhid vid.LHID) progmgr.SessionView {
		for _, s := range ws0.Sessions() {
			if s.LHID == lhid {
				return s
			}
		}
		return progmgr.SessionView{State: "absent"}
	}

	var before, during, after progmgr.SessionView
	var appliedBefore, appliedDuring, appliedAfter uint32
	var code uint32
	var err error
	done := false
	c.Node(0).Agent(func(a *Agent) {
		a.Sleep(2500 * time.Millisecond) // let the group elect its first leader
		var job *Job
		if job, err = a.Exec("ticker200", nil, "ws4"); err != nil {
			return
		}
		// Let the committed Supervise record reach ws0's replica, then cut
		// ws0 off from the other members for the rest of the job's life.
		a.Sleep(500 * time.Millisecond)
		if c.HomeLeaderIdx() == 0 {
			t.Error("ws0 leads the home group; the test needs it to be a follower")
		}
		c.Bus.SetCut(func(src, dst ethernet.MAC) bool {
			return (src == mac0 && (dst == mac1 || dst == mac2)) ||
				(dst == mac0 && (src == mac1 || src == mac2))
		})
		before, appliedBefore = session(job.LHID), ws0.HomeReplica().AppliedIndex()
		code, err = a.Wait(job) // the hosting manager on ws4 is still reachable
		during, appliedDuring = session(job.LHID), ws0.HomeReplica().AppliedIndex()
		c.Bus.SetCut(nil)
		a.Sleep(5 * params.LeaseInterval)
		after, appliedAfter = session(job.LHID), ws0.HomeReplica().AppliedIndex()
		done = true
	})
	c.Run(2 * time.Minute)

	if !done || err != nil || code != 0 {
		t.Fatalf("job: done=%v err=%v exit=%d", done, err, code)
	}
	if before.State != "active" {
		t.Fatalf("ws0's session before the exit: %q, want active", before.State)
	}
	if appliedDuring != appliedBefore {
		t.Fatalf("ws0 applied entries %d..%d while cut off", appliedBefore, appliedDuring)
	}
	if during.State != before.State || during.ExitCode != before.ExitCode {
		t.Fatalf("ws0's session changed outside the log: %q exit %d, was %q exit %d",
			during.State, during.ExitCode, before.State, before.ExitCode)
	}
	if after.State != "done" || after.ExitCode != code || appliedAfter <= appliedDuring {
		t.Fatalf("after the heal ws0's session is %q exit %d at applied %d (was %d), want done through the log",
			after.State, after.ExitCode, appliedAfter, appliedDuring)
	}
}

// Baseline: without a home group the same leader-and-host double kill
// loses the session — the home manager (the only supervisor) dies with
// its registry and nobody re-executes the program. This is what the
// consensus group buys.
func TestUnreplicatedHomeDiesWithSupervisor(t *testing.T) {
	c := boot(t, Options{Workstations: 6, Seed: 1})
	c.Install(progs.Ticker(300))

	// Kill the home workstation (the supervisor), then the hosting one.
	c.Sim.At(c.Sim.Now().Add(5*time.Second), func() { c.Node(3).Host.Crash() })
	c.Sim.At(c.Sim.Now().Add(8*time.Second), func() { c.Node(4).Host.Crash() })

	c.Node(3).Agent(func(a *Agent) {
		a.Sleep(2500 * time.Millisecond)
		a.Exec("ticker300", nil, "ws4")
		// The agent dies with ws3; the point is what happens afterwards.
	})
	c.Run(2 * time.Minute)

	if got := c.Trace.Count(trace.EvExecRestart); got != 0 {
		t.Fatalf("EvExecRestart = %d, want 0 (no supervisor left to recover)", got)
	}
}
