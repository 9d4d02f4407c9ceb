package progmgr

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"vsystem/internal/ethernet"
	"vsystem/internal/fileserver"
	"vsystem/internal/kernel"
	"vsystem/internal/mem"
	"vsystem/internal/packet"
	"vsystem/internal/params"
	"vsystem/internal/sim"
	"vsystem/internal/trace"
	"vsystem/internal/vid"
	"vsystem/internal/workload"
)

type rig struct {
	eng *sim.Engine
	ws  []*kernel.Host
	pms []*PM
	fs  *fileserver.Server
}

func newRig(t *testing.T, n int, seed int64) *rig {
	t.Helper()
	eng := sim.NewEngine(seed)
	bus := ethernet.NewBus(eng)
	r := &rig{eng: eng}
	for i := 0; i < n; i++ {
		h := kernel.NewHost(eng, bus, i, "ws"+string(rune('0'+i)))
		r.ws = append(r.ws, h)
		r.pms = append(r.pms, Start(h))
	}
	fsh := kernel.NewHost(eng, bus, n, "fserv")
	r.fs = fileserver.Start(fsh, 0, 1, nil)
	img := workload.Image(workload.Spec{Name: "job", HotKB: 8, HotRateKBps: 40, DurationMs: 2000}, 0)
	r.fs.Put("job", img.Encode())
	return r
}

// agent runs fn as a client process on workstation i.
func (r *rig) agent(i int, fn func(ctx *kernel.ProcCtx)) {
	r.ws[i].SpawnServer("agent", 8192, fn)
}

func TestCreateStartWait(t *testing.T) {
	r := newRig(t, 2, 1)
	var exit uint32
	var err error
	r.agent(0, func(ctx *kernel.ProcCtx) {
		m, e := ctx.Send(r.pms[1].PID(), vid.Message{
			Op: PmCreateProgram, W: [6]uint32{0, 1}, Seg: []byte("job"),
		})
		if e != nil || !m.OK() {
			err = e
			return
		}
		pid, lhid := vid.PID(m.W[0]), vid.LHID(m.W[1])
		if sm, e := ctx.Send(kernel.KernelServerPID(lhid), vid.Message{
			Op: kernel.KsStartProcess, W: [6]uint32{uint32(pid)},
		}); e != nil || !sm.OK() {
			err = e
			return
		}
		wm, e := ctx.Send(r.pms[1].PID(), vid.Message{Op: PmWaitProgram, W: [6]uint32{uint32(lhid)}})
		if e != nil || !wm.OK() {
			err = e
			return
		}
		exit = wm.W[0]
	})
	r.eng.RunFor(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if exit != 0 {
		t.Fatalf("exit = %d", exit)
	}
	// The program's logical host must be gone after exit (memory freed).
	for _, lh := range r.ws[1].LHs() {
		if !lh.System() {
			t.Fatalf("leftover logical host %v (%s)", lh.ID(), lh.Name())
		}
	}
}

func TestCreateUnknownImage(t *testing.T) {
	r := newRig(t, 2, 2)
	var code uint16 = 0xFFFF
	r.agent(0, func(ctx *kernel.ProcCtx) {
		m, err := ctx.Send(r.pms[1].PID(), vid.Message{Op: PmCreateProgram, Seg: []byte("ghost")})
		if err == nil {
			code = m.Code
		}
	})
	r.eng.RunFor(time.Minute)
	if code != vid.CodeNotFound {
		t.Fatalf("code = %d, want not-found", code)
	}
}

func TestSelectHostRespondsWhenIdle(t *testing.T) {
	r := newRig(t, 3, 3)
	var got vid.Message
	var err error
	var elapsed time.Duration
	r.agent(0, func(ctx *kernel.ProcCtx) {
		t0 := ctx.Now()
		got, err = ctx.Send(vid.GroupProgramManagers, vid.Message{
			Op: PmSelectHost,
			W:  [6]uint32{64 * 1024, uint32(r.ws[0].SystemLH().ID())},
		})
		elapsed = ctx.Now().Sub(t0)
	})
	r.eng.RunFor(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if vid.LHID(got.W[0]) == r.ws[0].SystemLH().ID() {
		t.Fatal("excluded host responded")
	}
	// First response ≈ the paper's 23 ms.
	if elapsed < 15*time.Millisecond || elapsed > 40*time.Millisecond {
		t.Fatalf("selection took %v, want ≈23ms", elapsed)
	}
}

func TestSelectHostSilentWhenNoMemory(t *testing.T) {
	r := newRig(t, 2, 4)
	var err error
	r.agent(0, func(ctx *kernel.ProcCtx) {
		_, err = ctx.Send(vid.GroupProgramManagers, vid.Message{
			Op: PmSelectHost,
			W:  [6]uint32{64 * 1024 * 1024, uint32(r.ws[0].SystemLH().ID())},
		})
	})
	r.eng.RunFor(time.Minute)
	if err == nil {
		t.Fatal("selection with impossible memory requirement succeeded")
	}
}

func TestQueryHostByName(t *testing.T) {
	r := newRig(t, 3, 5)
	var got vid.Message
	var err error
	r.agent(0, func(ctx *kernel.ProcCtx) {
		got, err = ctx.Send(vid.GroupProgramManagers, vid.Message{
			Op: PmQueryHost, Seg: []byte("WS2"), // case-insensitive
		})
	})
	r.eng.RunFor(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if vid.LHID(got.W[0]) != r.ws[2].SystemLH().ID() {
		t.Fatalf("resolved %v, want ws2's system LH", vid.LHID(got.W[0]))
	}
}

func TestInitMigrationChecksMemory(t *testing.T) {
	r := newRig(t, 2, 6)
	var ok, refused bool
	r.agent(0, func(ctx *kernel.ProcCtx) {
		req := &InitReq{
			Name: "incoming", Guest: true, FinalLH: 0x0133,
			Spaces: []kernel.SpaceDesc{{ID: 1, Size: 256 * 1024}},
		}
		m, err := ctx.Send(r.pms[1].PID(), vid.Message{Op: PmInitMigration, Seg: EncodeInitReq(req)})
		ok = err == nil && m.OK()
		if ok {
			// The placeholder must exist, frozen, with the space installed.
			lh, found := r.ws[1].LookupLH(vid.LHID(m.W[0]))
			if !found || !lh.Frozen() {
				ok = false
			}
		}
		huge := &InitReq{
			Name: "huge", FinalLH: 0x0134,
			Spaces: []kernel.SpaceDesc{{ID: 1, Size: 64 * 1024 * 1024}},
		}
		m2, err := ctx.Send(r.pms[1].PID(), vid.Message{Op: PmInitMigration, Seg: EncodeInitReq(huge)})
		refused = err == nil && m2.Code == vid.CodeNoMemory
	})
	r.eng.RunFor(time.Minute)
	if !ok {
		t.Fatal("valid init-migration failed")
	}
	if !refused {
		t.Fatal("oversized init-migration accepted")
	}
}

func TestWaitForUnknownProgram(t *testing.T) {
	r := newRig(t, 2, 7)
	var code uint16 = 0xFFFF
	r.agent(0, func(ctx *kernel.ProcCtx) {
		m, err := ctx.Send(r.pms[1].PID(), vid.Message{Op: PmWaitProgram, W: [6]uint32{0x7777}})
		if err == nil {
			code = m.Code
		}
	})
	r.eng.RunFor(time.Minute)
	if code != vid.CodeNotFound {
		t.Fatalf("code = %d", code)
	}
}

func TestQueryProgramsListing(t *testing.T) {
	r := newRig(t, 2, 8)
	var listing string
	r.agent(0, func(ctx *kernel.ProcCtx) {
		m, err := ctx.Send(r.pms[1].PID(), vid.Message{
			Op: PmCreateProgram, W: [6]uint32{0, 1}, Seg: []byte("job"),
		})
		if err != nil || !m.OK() {
			return
		}
		l, err := ctx.Send(r.pms[1].PID(), vid.Message{Op: PmQueryPrograms})
		if err == nil {
			listing = l.SegString()
		}
	})
	r.eng.RunFor(time.Minute)
	if !strings.Contains(listing, "job") {
		t.Fatalf("listing = %q", listing)
	}
}

func TestDestroyProgramNotifiesWaiters(t *testing.T) {
	r := newRig(t, 2, 9)
	var waitCode uint32
	var destroyed bool
	r.agent(0, func(ctx *kernel.ProcCtx) {
		m, err := ctx.Send(r.pms[1].PID(), vid.Message{
			Op: PmCreateProgram, W: [6]uint32{0, 1}, Seg: []byte("job"),
		})
		if err != nil || !m.OK() {
			return
		}
		lhid := m.W[1]
		// Start it so it's a live program, then destroy it mid-run.
		ctx.Send(kernel.KernelServerPID(vid.LHID(lhid)), vid.Message{
			Op: kernel.KsStartProcess, W: [6]uint32{m.W[0]},
		})
		// A second client waits.
		r.agent(0, func(w *kernel.ProcCtx) {
			wm, err := w.Send(r.pms[1].PID(), vid.Message{Op: PmWaitProgram, W: [6]uint32{lhid}})
			if err == nil {
				waitCode = wm.W[0]
			}
		})
		ctx.Sleep(300 * time.Millisecond)
		dm, err := ctx.Send(r.pms[1].PID(), vid.Message{Op: PmDestroyProgram, W: [6]uint32{lhid}})
		destroyed = err == nil && dm.OK()
	})
	r.eng.RunFor(time.Minute)
	if !destroyed {
		t.Fatal("destroy failed")
	}
	if waitCode != 0xDEAD {
		t.Fatalf("waiter got %#x, want 0xDEAD", waitCode)
	}
}

func TestMigrateWithoutMigratorRefused(t *testing.T) {
	r := newRig(t, 2, 10)
	var code uint16 = 0xFFFF
	r.agent(0, func(ctx *kernel.ProcCtx) {
		m, err := ctx.Send(r.pms[1].PID(), vid.Message{
			Op: PmCreateProgram, W: [6]uint32{0, 1}, Seg: []byte("job"),
		})
		if err != nil || !m.OK() {
			return
		}
		mm, err := ctx.Send(r.pms[1].PID(), vid.Message{Op: PmMigrateProgram, W: [6]uint32{m.W[1]}})
		if err == nil {
			code = mm.Code
		}
	})
	r.eng.RunFor(time.Minute)
	if code != vid.CodeRefused {
		t.Fatalf("code = %d, want refused", code)
	}
}

// TestReceptacleReapIsInactivityBased: the receptacle TTL is an inactivity
// timeout, not a deadline on the whole transfer. A slow but live copy —
// one page run every 20 s, well under the 30 s TTL — must keep the frozen
// placeholder alive past 30 s (a fixed TTL would reap it mid-transfer),
// while a receptacle whose writes stop is reaped once the TTL of idleness
// elapses.
func TestReceptacleReapIsInactivityBased(t *testing.T) {
	r := newRig(t, 2, 11)
	page := make([]byte, params.PageSize)
	var initErr, writeErr error
	var tempLH vid.LHID
	r.agent(0, func(ctx *kernel.ProcCtx) {
		req := &InitReq{
			Name: "slowcopy", Guest: true, FinalLH: 0x0155,
			SrcLH:  r.ws[0].SystemLH().ID(),
			Spaces: []kernel.SpaceDesc{{ID: 1, Size: 32 * 1024}},
		}
		m, err := ctx.Send(r.pms[1].PID(), vid.Message{Op: PmInitMigration, Seg: EncodeInitReq(req)})
		if err != nil || !m.OK() {
			initErr = err
			return
		}
		tempLH = vid.LHID(m.W[0])
		targetKS := kernel.KernelServerPID(vid.LHID(m.W[1]))
		// Last write lands at t≈60 s; the receptacle then goes idle and
		// must be reaped at t≈90 s.
		for i := 0; i < 3; i++ {
			ctx.Sleep(20 * time.Second)
			run := kernel.EncodePageRun(1, []mem.PageNo{mem.PageNo(i)}, [][]byte{page})
			wm, err := ctx.Send(targetKS, vid.Message{
				Op: kernel.KsWritePages, W: [6]uint32{uint32(tempLH)}, Seg: run,
			})
			if writeErr == nil && (err != nil || !wm.OK()) {
				writeErr = vid.CodeError(wm.Code)
				if err != nil {
					writeErr = err
				}
			}
		}
	})
	var aliveAt70, goneAt95 bool
	r.eng.After(70*time.Second, func() {
		_, aliveAt70 = r.ws[1].LookupLH(tempLH)
	})
	r.eng.After(95*time.Second, func() {
		_, stillThere := r.ws[1].LookupLH(tempLH)
		goneAt95 = !stillThere
	})
	r.eng.RunFor(100 * time.Second)
	if initErr != nil || writeErr != nil {
		t.Fatalf("init=%v write=%v", initErr, writeErr)
	}
	if !aliveAt70 {
		t.Fatal("receptacle reaped while page runs were still arriving")
	}
	if !goneAt95 {
		t.Fatal("idle receptacle never reaped")
	}
}

// TestWaiterReplyComesFromPMPort: a deferred PmWaitProgram answer is sent
// by the reaper worker, but it must be emitted from the program manager's
// own service port — the one the request arrived on. A reply emitted from
// the worker's port leaves the PM port's open-request entry and reply
// cache untouched, so if that single reply packet is lost the waiter's
// retransmissions are answered with reply-pending forever and the wait
// never completes.
func TestWaiterReplyComesFromPMPort(t *testing.T) {
	r := newRig(t, 2, 21)
	tb := trace.NewBus()
	for _, h := range r.ws {
		h.AttachTrace(tb)
	}
	var replySrc vid.PID
	tb.Subscribe(func(ev trace.Event) {
		if ev.Pkt != nil && ev.Pkt.Kind == packet.KReply && ev.Pkt.Msg.Op == PmWaitProgram {
			replySrc = ev.Pkt.Src
		}
	})
	var waited bool
	r.agent(0, func(ctx *kernel.ProcCtx) {
		m, e := ctx.Send(r.pms[1].PID(), vid.Message{
			Op: PmCreateProgram, W: [6]uint32{0, 1}, Seg: []byte("job"),
		})
		if e != nil || !m.OK() {
			return
		}
		pid, lhid := vid.PID(m.W[0]), vid.LHID(m.W[1])
		if sm, e := ctx.Send(kernel.KernelServerPID(lhid), vid.Message{
			Op: kernel.KsStartProcess, W: [6]uint32{uint32(pid)},
		}); e != nil || !sm.OK() {
			return
		}
		if wm, e := ctx.Send(r.pms[1].PID(), vid.Message{Op: PmWaitProgram, W: [6]uint32{uint32(lhid)}}); e == nil && wm.OK() {
			waited = true
		}
	})
	r.eng.RunFor(time.Minute)
	if !waited {
		t.Fatal("wait did not complete")
	}
	if replySrc != r.pms[1].PID() {
		t.Fatalf("wait reply emitted from %v, want the PM port %v", replySrc, r.pms[1].PID())
	}
}

// TestLoneCommitMatchesHomeApply pins the session registry's single
// mutation path: one mutation sequence committed on a lone manager and
// applied as encoded log commands by a home-group member's state machine
// must leave byte-identical snapshots. The sequence includes the late
// arrivals whose guards the two paths once disagreed on: a rebind and a
// failure after the session is done. A late copy of a finished session's
// own record must not reopen it; a new job on its recycled slot must.
func TestLoneCommitMatchesHomeApply(t *testing.T) {
	registry := func() *PM {
		return &PM{sessions: make(map[vid.LHID]*session), alias: make(map[vid.LHID]vid.LHID)}
	}
	lh := func(station, slot uint16) vid.LHID { return vid.NewHostLH(station, slot) }
	sess := func(id vid.LHID, name string, started sim.Time) *SessionInfo {
		return &SessionInfo{
			LHID: id, PID: vid.NewPID(id, vid.IdxFirstProcess), Name: name, Args: []string{"-x"},
			HostPM: vid.NewPID(lh(5, 0), vid.IdxProgramManager), HostLH: lh(5, 0), MaxRestarts: 3,
			Started: started,
		}
	}
	a, b, c := lh(5, 1), lh(5, 2), lh(5, 3)
	steps := []*hgCmd{
		{Kind: hgSupervise, Sess: sess(a, "a", 1), At: 10},
		{Kind: hgSupervise, Sess: sess(b, "b", 2), At: 11},
		{Kind: hgSupervise, Sess: sess(c, "c", 3), At: 12},
		{Kind: hgSupervise, Sess: sess(a, "a-duplicate", 1), At: 13}, // live: ignored
		{Kind: hgRenewed, Orig: a, At: 20, HostPM: 0x0601, HostLH: uint32(lh(6, 0)), NewLH: uint32(lh(6, 4))},
		{Kind: hgBreak, Orig: a, At: 30},
		{Kind: hgRetryAt, Orig: a, At: 35},
		{Kind: hgIntent, Orig: a, Attempt: 1},
		{Kind: hgRebind, Orig: a, At: 40, NewLH: uint32(lh(7, 1)), NewPID: uint32(vid.NewPID(lh(7, 1), vid.IdxFirstProcess)), HostPM: 0x0701, HostLH: uint32(lh(7, 0))},
		{Kind: hgRetryAt, Orig: a, At: 45}, // active, not broken: ignored
		{Kind: hgDone, Orig: b, Code: 7},
		{Kind: hgRebind, Orig: b, At: 50, NewLH: uint32(lh(8, 1)), HostLH: uint32(lh(8, 0))}, // done: ignored
		{Kind: hgRenewed, Orig: b, At: 51, HostLH: uint32(lh(8, 0))},                         // done: ignored
		{Kind: hgBreak, Orig: b, At: 52},                                                     // done: ignored
		{Kind: hgFailed, Orig: b},                                                            // done stays done
		{Kind: hgSupervise, Sess: sess(b, "b-duplicate", 2), At: 53},                         // late copy: done stays done
		{Kind: hgBreak, Orig: c, At: 60},
		{Kind: hgFailed, Orig: c},
		{Kind: hgDone, Orig: c, Code: 3},                             // failed stays failed
		{Kind: hgSupervise, Sess: sess(c, "c-recycled", 65), At: 70}, // finished: a new job on the slot
		{Kind: hgDone, Orig: lh(9, 9), Code: 1},                      // unknown session
	}
	lone, member := registry(), registry()
	for i, c := range steps {
		if err := lone.commit(nil, c); err != nil {
			t.Fatalf("step %d: lone commit: %v", i, err)
		}
		(&homeSM{member}).Apply(nil, encodeHgCmd(c))
	}
	if !bytes.Equal((&homeSM{lone}).Snapshot(), (&homeSM{member}).Snapshot()) {
		t.Fatal("lone manager and home-group member registries differ")
	}
	want := map[vid.LHID]string{a: "active/2", b: "done/1", c: "active/1"}
	for id, w := range want {
		s := lone.sessions[id]
		if got := fmt.Sprintf("%s/%d", s.state, s.incarnation); got != w {
			t.Errorf("session %v: %s, want %s", id, got, w)
		}
	}
	if s := lone.sessions[b]; s.exitCode != 7 || s.name != "b" {
		t.Errorf("done session is %q with exit code %d, want b with 7", s.name, s.exitCode)
	}
	if s := lone.sessions[c]; s.name != "c-recycled" {
		t.Errorf("recycled slot kept %q, want the new job", s.name)
	}
}
