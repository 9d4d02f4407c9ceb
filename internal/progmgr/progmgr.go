// Package progmgr implements the per-workstation program manager.
//
// The program manager (well-known local index 2, member of the well-known
// program-manager group) provides program management for the programs
// executing on its workstation (§2.1): it answers host-selection queries,
// creates execution environments (address space, loaded image, argument
// and environment initialization), tracks running programs, tears them
// down on exit, and coordinates the receiving side of migration. The
// sending side of migration — the pre-copy engine — is injected by the
// core package as a Migrator, mirroring the paper's split between the
// migration module added to the program manager and the kernel operations
// it drives.
package progmgr

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"vsystem/internal/image"
	"vsystem/internal/ipc"
	"vsystem/internal/kernel"
	"vsystem/internal/params"
	"vsystem/internal/rsm"
	"vsystem/internal/sched"
	"vsystem/internal/sim"
	"vsystem/internal/trace"
	"vsystem/internal/vid"
	"vsystem/internal/vvm"
)

// Operations (0x30 region).
const (
	// PmQueryHost: Seg=hostname → reply only from the named host:
	// W0=system LH, W5=PM pid.
	PmQueryHost uint16 = 0x30 + iota
	// PmSelectHost: W0=min free memory (bytes), W1..W4=excluded system
	// LHs, W5=sched query flags (0 = the paper's strict query) → reply
	// only from willing hosts: W = the host's load advertisement
	// (LoadWords: W0=system LH, W1=free memory, W2=ready depth,
	// W3=residents, W4=util‰, W5=PM pid). Unwilling hosts stay silent,
	// unless QueryUnicast asks for an explicit refusal; QueryRelaxed
	// drops the idleness requirement (memory still applies).
	PmSelectHost
	// PmCreateProgram: W0=stdout PID, W1=guest flag, Seg=program name
	// NUL-joined with arguments → W0=initial process PID, W1=LHID.
	PmCreateProgram
	// PmWaitProgram: W0=LHID → replies when the program exits
	// (W0=exit code) or migrates away (code=CodeMoved, W1=new PM pid).
	PmWaitProgram
	// PmMigrateProgram: W0=LHID (0 = all guest programs), W1=1 to
	// destroy if no host found (-n) → Seg = gob MigrationReport.
	PmMigrateProgram
	// PmInitMigration: Seg = gob InitReq → W0=placeholder LHID,
	// W1=target system LH, W5=PM pid.
	PmInitMigration
	// PmQueryPrograms: → Seg = listing, one program per line.
	PmQueryPrograms
	// PmDestroyProgram: W0=LHID.
	PmDestroyProgram
	// PmAssumeMigration: W0=final LHID — the source's notice that the
	// incoming copy has assumed its identity and now belongs to this
	// manager.
	PmAssumeMigration
	// PmSuspendProgram: W0=LHID — freeze the program (the transparent
	// suspend of §2: "facilities for terminating, suspending and
	// debugging programs work independent of whether the program is
	// executing locally or remotely").
	PmSuspendProgram
	// PmResumeProgram: W0=LHID — unfreeze a suspended program.
	PmResumeProgram
	// PmRenewLease: the originating manager's session heartbeat.
	// W0=LHID → W1=1 (running, lease renewed) or W1=2 (exited, W2=exit
	// code); CodeMoved with W1=new manager pid and W2=new LHID (0: LHID
	// unchanged) when the program moved; CodeNotFound when this manager
	// knows nothing of it.
	PmRenewLease
	// PmLocateProgram: group query during session recovery — W0=LHID.
	// Only the manager currently *running* the program (not an incoming
	// receptacle) replies, with W0=its system LH and W5=its pid; every
	// other manager stays silent so the first group reply is
	// authoritative. This is the double-execution guard: a supervisor
	// never re-executes a program some host still runs.
	PmLocateProgram
)

// CodeMoved is the WaitProgram reply code when the program migrated; W1
// holds the program manager now responsible.
const CodeMoved uint16 = 100

// InitReq describes an incoming migration (§3.1.1): the target initializes
// descriptors for the new copy under a different logical-host id. SrcLH is
// the source's system logical host, which the destination's orphan-adoption
// watchdog probes before unfreezing an apparently abandoned copy — source
// *death* must be distinguished from source *unreachability* or the two
// hosts can end up running the same logical host (split-brain).
type InitReq struct {
	Name    string
	Guest   bool
	FinalLH vid.LHID
	SrcLH   vid.LHID
	Spaces  []kernel.SpaceDesc
	// Args and Stdout travel with the program so the receiving manager
	// can re-execute it from its file-server image if it must later be
	// evicted and no host will accept a migration.
	Args   []string
	Stdout vid.PID
}

// EncodeInitReq serializes an InitReq.
func EncodeInitReq(r *InitReq) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(r); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// DecodeInitReq parses an InitReq.
func DecodeInitReq(b []byte) (*InitReq, error) {
	var r InitReq
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&r); err != nil {
		return nil, err
	}
	return &r, nil
}

// Migrator is the pluggable migration engine (implemented by the core
// package). It runs on the source host's migration worker task and moves
// lh to another host, returning a report.
type Migrator interface {
	Migrate(ctx *kernel.ProcCtx, pm *PM, lh *kernel.LogicalHost) (report []byte, newPM vid.PID, err error)
}

// PhaseTagged is implemented by migration errors that know which phase
// they died in; the program manager relays the tag in its refusal reply
// (W0 = phase+1, W1 = pre-copy round) so requesters on other hosts can
// reconstruct a typed error.
type PhaseTagged interface {
	PhaseTag() (phase, round uint32)
}

// progInfo tracks one program.
type progInfo struct {
	lh       *kernel.LogicalHost
	name     string
	args     []string
	stdout   vid.PID
	guest    bool
	incoming bool     // migration receptacle, not yet assumed
	srcLH    vid.LHID // migration source's system LH (incoming only)
	waiters  []*ipc.Req
}

// movedTo records where a program this manager used to run went, so late
// waiters and lease renewals can be redirected instead of answered
// not-found.
type movedTo struct {
	pm vid.PID
	lh vid.LHID // LHID after the move (== old id for migration)
}

// PM is one workstation's program manager.
type PM struct {
	host     *kernel.Host
	proc     *kernel.Process
	Migrator Migrator
	// Selector, when wired (by core), runs host selection for session
	// recovery and eviction re-execution.
	Selector *sched.Selector
	// SelectDally, when non-zero (set by core for large clusters), is the
	// window over which replies to *multicast* select queries are spread:
	// each willing host sleeps a deterministic slot derived from its
	// station address and the query's transaction id before answering.
	// Without it, every idle host finishes the probe evaluation at the
	// same instant and the reply implosion jams the shared segment.
	SelectDally time.Duration

	progs  map[vid.LHID]*progInfo
	exited map[vid.LHID]uint32  // recently exited: exit codes for late waiters
	moved  map[vid.LHID]movedTo // migrated or re-executed away
	lost   map[vid.LHID]bool    // aborted guests (post-copy residue loss)

	reaper   *kernel.Process
	exits    []*kernel.LogicalHost
	migrateQ []*migrateJob
	worker   *kernel.Process
	adoptQ   []*adoptJob
	adopter  *kernel.Process

	sessions map[vid.LHID]*session // supervised remote jobs, by original LHID
	alias    map[vid.LHID]vid.LHID // later incarnations' LHIDs → original
	reapQ    []*reapJob            // remote programs to destroy, with retry
	sup      SupStats
	lease    *kernel.Process
	home     *rsm.Replica  // home-group replica; nil when unreplicated
	homePend []SessionInfo // Supervise records awaiting group resubmission

	fsPID vid.PID // cached file-server pid
}

// adoptJob is one orphan-adoption candidate: an incoming copy that assumed
// its final identity but whose source has not finished the hand-over.
type adoptJob struct {
	final       vid.LHID
	lh          *kernel.LogicalHost
	srcLH       vid.LHID
	silentSince sim.Time // start of the current probe-silence run (0: none)
}

type migrateJob struct {
	req  *ipc.Req
	lhid vid.LHID
	kill bool
}

// Start spawns the program manager on a host.
func Start(h *kernel.Host) *PM {
	pm := &PM{
		host:     h,
		progs:    make(map[vid.LHID]*progInfo),
		exited:   make(map[vid.LHID]uint32),
		moved:    make(map[vid.LHID]movedTo),
		lost:     make(map[vid.LHID]bool),
		sessions: make(map[vid.LHID]*session),
		alias:    make(map[vid.LHID]vid.LHID),
	}
	pm.proc = h.SpawnServer("progmgr", 64*1024, pm.run)
	h.RegisterWellKnown(vid.IdxProgramManager, pm.proc.PID())
	h.JoinGroup(vid.GroupProgramManagers, pm.proc.PID())
	h.OnLHEmpty = pm.onLHEmpty
	h.OnLHIDChanged = pm.onLHIDChanged
	pm.reaper = h.SpawnServer("pm-reaper", 4096, pm.reap)
	pm.worker = h.SpawnServer("pm-migrate", 16*1024, pm.migrateLoop)
	pm.adopter = h.SpawnServer("pm-adopt", 8*1024, pm.adoptLoop)
	pm.lease = h.SpawnServer("pm-lease", 16*1024, pm.leaseLoop)
	return pm
}

// PID returns the program manager's process id.
func (pm *PM) PID() vid.PID { return pm.proc.PID() }

// Host returns the managed workstation.
func (pm *PM) Host() *kernel.Host { return pm.host }

// ProgMeta returns a tracked program's invocation metadata (arguments and
// output sink) so the migration engine can forward it to the receiving
// manager.
func (pm *PM) ProgMeta(lhid vid.LHID) (args []string, stdout vid.PID) {
	if pi := pm.progs[lhid]; pi != nil {
		return pi.args, pi.stdout
	}
	return nil, vid.Nil
}

// Programs returns the LHIDs of programs this manager tracks (excluding
// incoming receptacles).
func (pm *PM) Programs() []vid.LHID {
	var out []vid.LHID
	for id, pi := range pm.progs {
		if !pi.incoming {
			out = append(out, id)
		}
	}
	return out
}

// onLHEmpty runs in the exiting process's context; queue the teardown for
// the reaper task.
func (pm *PM) onLHEmpty(lh *kernel.LogicalHost) {
	pm.exits = append(pm.exits, lh)
}

// replyAsPM answers a request that arrived on the program manager's own
// service port from a worker process's context. Workers must NOT reply on
// their own ports (ctx.Reply): the reply would leave the PM port's open
// entry and reply cache untouched, so if the one reply packet is lost the
// waiter's retransmissions keep hitting the PM port, are answered with
// reply-pending forever, and the transaction never completes.
func (pm *PM) replyAsPM(ctx *kernel.ProcCtx, r *ipc.Req, msg vid.Message) {
	pm.proc.Port().Reply(ctx.Task(), r, msg)
}

func (pm *PM) reap(ctx *kernel.ProcCtx) {
	for {
		if len(pm.exits) == 0 {
			ctx.Sleep(pollInterval)
			continue
		}
		lh := pm.exits[0]
		pm.exits = pm.exits[1:]
		pi := pm.progs[lh.ID()]
		code := lh.ExitCode()
		ctx.Compute(params.EnvDestroyCPU)
		pm.host.DestroyLH(lh)
		pm.exited[lh.ID()] = code
		if pi != nil {
			delete(pm.progs, lh.ID())
			for _, w := range pi.waiters {
				pm.replyAsPM(ctx, w, vid.Message{Op: PmWaitProgram, W: [6]uint32{code}})
			}
		}
	}
}

// AbortGuest destroys a hosted guest whose memory can no longer be
// completed — a post-copy residue loss: the source receptacle died before
// the destination held every page. Unlike a normal exit the program is
// recorded nowhere afterwards — not in exited, not in moved — so the
// owning session's next lease renewal sees not-found, expires the lease,
// and re-executes the program from its file-server image. Pending waiters
// are bounced with CodeAborted; the session layer re-answers them after
// recovery. Called from the faulting process's context (t).
func (pm *PM) AbortGuest(t *sim.Task, lhid vid.LHID) {
	pi := pm.progs[lhid]
	if pi == nil {
		return
	}
	delete(pm.progs, lhid)
	pm.lost[lhid] = true
	for _, w := range pi.waiters {
		pm.proc.Port().Reply(t, w, vid.ErrMsg(vid.CodeAborted))
	}
	pm.host.DestroyLH(pi.lh)
}

// MigrateAway is the programmatic equivalent of PmMigrateProgram for
// callers on the same host (the owner-returns scenario): it queues the
// migration and returns immediately.
func (pm *PM) MigrateAway(lhid vid.LHID, kill bool) {
	pm.migrateQ = append(pm.migrateQ, &migrateJob{lhid: lhid, kill: kill})
}

func (pm *PM) migrateLoop(ctx *kernel.ProcCtx) {
	for {
		if len(pm.migrateQ) == 0 {
			ctx.Sleep(pollInterval)
			continue
		}
		job := pm.migrateQ[0]
		pm.migrateQ = pm.migrateQ[1:]
		reply := pm.doMigrate(ctx, job)
		if job.req != nil {
			pm.proc.Port().Reply(ctx.Task(), job.req, reply)
		}
	}
}

func (pm *PM) doMigrate(ctx *kernel.ProcCtx, job *migrateJob) vid.Message {
	pi := pm.progs[job.lhid]
	if pi == nil || pi.incoming {
		return vid.ErrMsg(vid.CodeNotFound)
	}
	if pm.Migrator == nil {
		return vid.ErrMsg(vid.CodeRefused)
	}
	if pi.lh.Frozen() {
		// A suspended program stays where it is; resume it first. (The
		// migration engine manages freezing itself.)
		return vid.ErrMsg(vid.CodeRefused)
	}
	report, newPM, err := pm.Migrator.Migrate(ctx, pm, pi.lh)
	if err != nil {
		if job.kill {
			// migrateprog -n: destroy the program when no host accepts it.
			pm.host.DestroyLH(pi.lh)
			delete(pm.progs, job.lhid)
			pm.exited[job.lhid] = 0xDEAD
			for _, w := range pi.waiters {
				pm.replyAsPM(ctx, w, vid.Message{Op: PmWaitProgram, W: [6]uint32{0xDEAD}})
			}
			return vid.Message{Op: PmMigrateProgram, W: [6]uint32{1}}
		}
		if job.req == nil && pm.reexecElsewhere(ctx, job.lhid, pi) {
			// Eviction (owner-returns) that could not migrate: the guest
			// was re-executed from its image on another host instead.
			return vid.Message{Op: PmMigrateProgram, W: [6]uint32{2}}
		}
		if job.req == nil {
			// Last resort for an eviction: suspend the guest and tell its
			// owner, rather than leaving it consuming the workstation.
			pm.host.Freeze(pi.lh)
			if pi.stdout != vid.Nil {
				ctx.Send(pi.stdout, vid.Message{Op: vvm.OpWriteLine, Seg: []byte(
					fmt.Sprintf("[progmgr %s] %s: eviction found no host; suspended", pm.host.Name, pi.name)),
				})
			}
		}
		reply := vid.ErrMsg(vid.CodeRefused)
		var pt PhaseTagged
		if errors.As(err, &pt) {
			reply.W[0], reply.W[1] = pt.PhaseTag()
		}
		return reply
	}
	// The program now belongs to the new host's manager: release local
	// bookkeeping, leave a forwarding record, and redirect waiters.
	delete(pm.progs, job.lhid)
	pm.RecordMoved(job.lhid, newPM, job.lhid)
	for _, w := range pi.waiters {
		pm.replyAsPM(ctx, w, vid.Message{Op: PmWaitProgram, Code: CodeMoved, W: [6]uint32{0, uint32(newPM)}})
	}
	return vid.Message{Op: PmMigrateProgram, Seg: report}
}

// RecordMoved notes that a program this manager used to run is now with
// another manager (migration or eviction re-execution); late waiters and
// lease renewals are redirected there with CodeMoved.
func (pm *PM) RecordMoved(lhid vid.LHID, newPM vid.PID, newLH vid.LHID) {
	pm.moved[lhid] = movedTo{pm: newPM, lh: newLH}
}

// movedReply builds the CodeMoved redirect for a waiter or lease renewal
// that asked about lhid: W1 = the responsible manager, W2 = the program's
// LHID there (0 when unchanged).
func movedReply(op uint16, lhid vid.LHID, mv movedTo) vid.Message {
	w2 := uint32(0)
	if mv.lh != 0 && mv.lh != lhid {
		w2 = uint32(mv.lh)
	}
	return vid.Message{Op: op, Code: CodeMoved, W: [6]uint32{0, uint32(mv.pm), w2}}
}

// reexecElsewhere re-executes an evicted guest from its file-server image
// on a freshly selected host — the supervision fallback when migration
// cannot find a receptacle but the owner wants the guest gone. The old
// copy's partial state is lost (the program restarts), but its output is
// deduplicated by the display server via the adoption notice, so the
// stream the user sees stays exactly-once.
func (pm *PM) reexecElsewhere(ctx *kernel.ProcCtx, lhid vid.LHID, pi *progInfo) bool {
	if pm.Selector == nil || pi.name == "" {
		return false
	}
	minMem := pi.lh.MemUsed()
	if minMem < 256*1024 {
		minMem = 256 * 1024
	}
	l, err := pm.Selector.Select(ctx, minMem, pm.host.SystemLH().ID())
	if err != nil {
		return false
	}
	seg := []byte(strings.Join(append([]string{pi.name}, pi.args...), "\x00"))
	cm, err := ctx.Send(l.PM, vid.Message{
		Op: PmCreateProgram, W: [6]uint32{uint32(pi.stdout), 1}, Seg: seg,
	})
	if err != nil || !cm.OK() {
		return false
	}
	newPID, newLH := vid.PID(cm.W[0]), vid.LHID(cm.W[1])
	if pi.stdout != vid.Nil {
		// Tell the output sink about the incarnation change before the new
		// copy can emit a line, so replayed output is suppressed.
		ctx.Send(pi.stdout, vid.Message{Op: supOpAdopt, W: [6]uint32{uint32(lhid), uint32(newLH)}})
	}
	sm, err := ctx.Send(kernel.KernelServerPID(newLH), vid.Message{
		Op: kernel.KsStartProcess, W: [6]uint32{uint32(newPID)},
	})
	if err != nil || !sm.OK() {
		if _, e := ctx.Send(l.PM, vid.Message{
			Op: PmDestroyProgram, W: [6]uint32{uint32(newLH)},
		}); e != nil {
			pm.ReapRemote(l.PM, newLH)
		}
		return false
	}
	pm.host.DestroyLH(pi.lh)
	delete(pm.progs, lhid)
	pm.RecordMoved(lhid, l.PM, newLH)
	pm.sup.ExecRestarts++
	pm.host.Trace().Publish(trace.Event{
		At: ctx.Now(), Host: uint16(pm.host.NIC.MAC()), Kind: trace.EvExecRestart,
		LH: newLH, Peer: l.SystemLH.Station(),
	})
	for _, w := range pi.waiters {
		pm.replyAsPM(ctx, w, movedReply(PmWaitProgram, lhid, movedTo{pm: l.PM, lh: newLH}))
	}
	return true
}

// run is the program manager's main service loop.
func (pm *PM) run(ctx *kernel.ProcCtx) {
	port := pm.proc.Port()
	for {
		req := ctx.Receive()
		m := req.Msg
		switch m.Op {
		case PmQueryHost:
			if !strings.EqualFold(m.SegString(), pm.host.Name) {
				port.Drop(req)
				continue
			}
			ctx.Reply(req, vid.Message{Op: m.Op, W: [6]uint32{
				uint32(pm.host.SystemLH().ID()), 0, 0, 0, 0, uint32(pm.PID()),
			}})

		case PmSelectHost:
			// Evaluate availability: CPU idle at program priorities and
			// enough free memory. The evaluation cost dominates the
			// paper's 23 ms host-selection time. W1..W4 carry excluded
			// system LHs: the requester's own host plus destinations that
			// already failed this migration. W5 carries sched query
			// flags: a relaxed query is answered with the load even when
			// the CPU is busy, and a unicast probe earns an explicit
			// refusal where a multicast would get silence.
			flags := m.W[5] & 0xFFFF
			refuse := func() {
				if flags&sched.QueryUnicast != 0 {
					ctx.Reply(req, vid.ErrMsg(vid.CodeRefused))
				} else {
					port.Drop(req)
				}
			}
			// Reply thinning: on large clusters the query's high flag half
			// carries a permille; most managers hash themselves out before
			// paying the probe evaluation, bounding both the cluster-wide
			// evaluation cost and the reply implosion at the submitter.
			if permille := m.W[5] >> 16; permille > 0 && flags&sched.QueryUnicast == 0 &&
				replyLottery(uint64(pm.host.NIC.MAC()), req.TxID()) >= permille {
				port.Drop(req)
				continue
			}
			self := uint32(pm.host.SystemLH().ID())
			if m.W[1] == self || m.W[2] == self || m.W[3] == self || m.W[4] == self {
				refuse()
				continue
			}
			ctx.Compute(params.SelectProbeCPU)
			willing := pm.host.MemFree() >= m.W[0] &&
				(flags&sched.QueryRelaxed != 0 || pm.host.CPU.Idle())
			if !willing {
				refuse()
				continue
			}
			if pm.SelectDally > 0 && flags&sched.QueryUnicast == 0 {
				ctx.Sleep(dallySlot(uint64(pm.host.NIC.MAC()), req.TxID(), pm.SelectDally))
			}
			ctx.Reply(req, vid.Message{Op: m.Op, W: pm.host.LoadWords()})

		case PmCreateProgram:
			ctx.Reply(req, pm.createProgram(ctx, m))

		case PmWaitProgram:
			if m.W[5]&PmWaitHome != 0 && !pm.homeLeading() {
				// Home-group wait: only the current leader answers or holds
				// the waiter; every other member stays silent so the agent's
				// group send lands on exactly one authority.
				port.Drop(req)
				continue
			}
			lhid := vid.LHID(m.W[0])
			if pi := pm.progs[lhid]; pi != nil && !pi.incoming {
				pi.waiters = append(pi.waiters, req)
				continue // deferred reply
			}
			if code, ok := pm.exited[lhid]; ok {
				ctx.Reply(req, vid.Message{Op: m.Op, W: [6]uint32{code}})
				continue
			}
			if mv, ok := pm.moved[lhid]; ok {
				ctx.Reply(req, movedReply(m.Op, lhid, mv))
				continue
			}
			if s := pm.sessionFor(lhid); s != nil {
				// This manager supervises the job: redirect the waiter to
				// the hosting manager, or — while the session is broken —
				// hold the waiter until recovery resolves it, so a waiter
				// cannot bounce between managers during a fail-over.
				switch s.state {
				case sessionActive:
					ctx.Reply(req, movedReply(m.Op, lhid, movedTo{pm: s.hostPM, lh: s.cur}))
				case sessionDone:
					ctx.Reply(req, vid.Message{Op: m.Op, W: [6]uint32{s.exitCode}})
				case sessionFailed:
					ctx.Reply(req, vid.Message{Op: m.Op, Code: vid.CodeAborted})
				default: // broken: deferred until recovery resolves
					s.waiters = append(s.waiters, req)
				}
				continue
			}
			if pm.lost[lhid] {
				// Torn down administratively (post-copy residue loss): the
				// waiter re-asks its home supervisor, which resolves the
				// session once the lease breaks.
				ctx.Reply(req, vid.ErrMsg(vid.CodeAborted))
				continue
			}
			ctx.Reply(req, vid.ErrMsg(vid.CodeNotFound))

		case PmRenewLease:
			lhid := vid.LHID(m.W[0])
			if pm.progs[lhid] != nil {
				// Running here (an incoming receptacle also renews: the
				// program is mid-migration, not lost).
				ctx.Reply(req, vid.Message{Op: m.Op, W: [6]uint32{0, 1}})
				continue
			}
			if mv, ok := pm.moved[lhid]; ok {
				ctx.Reply(req, movedReply(m.Op, lhid, mv))
				continue
			}
			if code, ok := pm.exited[lhid]; ok {
				ctx.Reply(req, vid.Message{Op: m.Op, W: [6]uint32{0, 2, code}})
				continue
			}
			ctx.Reply(req, vid.ErrMsg(vid.CodeNotFound))

		case PmSupervise:
			// Register a session with the home group (group-addressed): the
			// leader commits the record and answers; followers stay silent.
			if !pm.homeLeading() {
				port.Drop(req)
				continue
			}
			si, err := DecodeSessionInfo(m.Seg)
			if err != nil {
				ctx.Reply(req, vid.ErrMsg(vid.CodeBadRequest))
				continue
			}
			if pm.Supervise(ctx, *si) != nil {
				ctx.Reply(req, vid.ErrMsg(vid.CodeTimeout))
				continue
			}
			ctx.Reply(req, vid.Message{Op: m.Op})

		case PmNoteExited:
			// The agent's Wait saw the exit; commit it so no replica keeps
			// renewing the dead session after a fail-over.
			if !pm.homeLeading() {
				port.Drop(req)
				continue
			}
			if pm.NoteExited(ctx, vid.LHID(m.W[0]), m.W[1]) != nil {
				ctx.Reply(req, vid.ErrMsg(vid.CodeTimeout))
				continue
			}
			ctx.Reply(req, vid.Message{Op: m.Op})

		case PmLocateProgram:
			if pi := pm.progs[vid.LHID(m.W[0])]; pi != nil && !pi.incoming {
				ctx.Reply(req, vid.Message{Op: m.Op, W: [6]uint32{
					uint32(pm.host.SystemLH().ID()), 0, 0, 0, 0, uint32(pm.PID()),
				}})
				continue
			}
			port.Drop(req) // silence: only the running host may answer

		case PmMigrateProgram:
			lhid := vid.LHID(m.W[0])
			if lhid == 0 {
				// migrateprog with no program: remove all guest programs.
				for id, pi := range pm.progs {
					if pi.guest && !pi.incoming {
						pm.migrateQ = append(pm.migrateQ, &migrateJob{lhid: id, kill: m.W[1] != 0})
					}
				}
				ctx.Reply(req, vid.Message{Op: m.Op})
				continue
			}
			pm.migrateQ = append(pm.migrateQ, &migrateJob{req: req, lhid: lhid, kill: m.W[1] != 0})

		case PmInitMigration:
			ctx.Reply(req, pm.initMigration(ctx, m))

		case PmAssumeMigration:
			pm.AssumeIncoming(vid.LHID(m.W[0]))
			ctx.Reply(req, vid.Message{Op: m.Op})

		case PmSuspendProgram, PmResumeProgram:
			pi := pm.progs[vid.LHID(m.W[0])]
			if pi == nil || pi.incoming {
				ctx.Reply(req, vid.ErrMsg(vid.CodeNotFound))
				continue
			}
			if m.Op == PmSuspendProgram {
				pm.host.Freeze(pi.lh)
			} else {
				pm.host.Unfreeze(pi.lh, false)
			}
			ctx.Reply(req, vid.Message{Op: m.Op})

		case PmQueryPrograms:
			var sb strings.Builder
			for _, lh := range pm.host.LHs() {
				if lh.System() {
					continue
				}
				fmt.Fprintf(&sb, "%v %s guest=%v frozen=%v mem=%dK\n",
					lh.ID(), lh.Name(), lh.Guest(), lh.Frozen(), lh.MemUsed()/1024)
			}
			ctx.Reply(req, vid.Message{Op: m.Op, Seg: []byte(sb.String())})

		case PmDestroyProgram:
			lhid := vid.LHID(m.W[0])
			pi := pm.progs[lhid]
			if pi == nil {
				ctx.Reply(req, vid.ErrMsg(vid.CodeNotFound))
				continue
			}
			ctx.Compute(params.EnvDestroyCPU)
			pm.host.DestroyLH(pi.lh)
			delete(pm.progs, lhid)
			pm.exited[lhid] = 0xDEAD
			for _, w := range pi.waiters {
				ctx.Reply(w, vid.Message{Op: PmWaitProgram, W: [6]uint32{0xDEAD}})
			}
			ctx.Reply(req, vid.Message{Op: m.Op})

		default:
			ctx.Reply(req, vid.ErrMsg(vid.CodeBadRequest))
		}
	}
}

// createProgram sets up a new execution environment (§2.1): find the
// image on a file server, create the logical host and address space, load
// code and data, write the environment block, and create the initial
// process awaiting its creator's start.
func (pm *PM) createProgram(ctx *kernel.ProcCtx, m vid.Message) vid.Message {
	parts := strings.Split(m.SegString(), "\x00")
	progName := parts[0]
	args := parts[1:]
	guest := m.W[1] != 0
	stdout := vid.PID(m.W[0])

	imgBytes, fsPID, err := pm.loadFile(ctx, progName)
	if err != nil {
		if ce, ok := err.(vid.CodeError); ok {
			return vid.ErrMsg(uint16(ce))
		}
		return vid.ErrMsg(vid.CodeNotFound)
	}
	img, err := image.Decode(imgBytes)
	if err != nil {
		return vid.ErrMsg(vid.CodeBadRequest)
	}

	// Environment setup cost (address space, process, argument and
	// environment initialization — calibrated with destroy to the
	// paper's 40 ms).
	ctx.Compute(params.EnvSetupCPU)

	lh := pm.host.CreateLH(progName, guest)
	as, err := lh.CreateSpace(img.SpaceSize)
	if err != nil {
		pm.host.DestroyLH(lh)
		return vid.ErrMsg(vid.CodeNoMemory)
	}
	if len(img.Code) > 0 {
		if err := as.WriteAt(vvm.CodeBase, img.Code); err != nil {
			pm.host.DestroyLH(lh)
			return vid.ErrMsg(vid.CodeBadRequest)
		}
	}
	if len(img.Data) > 0 {
		if err := as.WriteAt(vvm.CodeBase+uint32(len(img.Code)), img.Data); err != nil {
			pm.host.DestroyLH(lh)
			return vid.ErrMsg(vid.CodeBadRequest)
		}
	}
	heap := vvm.CodeBase + uint32(len(img.Code)+len(img.Data))
	heap = (heap + 1023) &^ 1023
	env := image.EnvBlock{
		Stdout:     stdout,
		FileServer: fsPID,
		Args:       append([]string{progName}, args...),
		HeapBase:   heap,
		// "a name cache for commonly used global names" (§2.1): seeded
		// with the bindings this manager knows; migrates with the
		// program's address space (§6).
		NameCache: map[string]vid.PID{
			"fileserver": fsPID,
			"stdout":     stdout,
		},
	}
	if err := as.WriteAt(0, env.Encode()); err != nil {
		pm.host.DestroyLH(lh)
		return vid.ErrMsg(vid.CodeBadRequest)
	}
	// A freshly loaded program starts with clean dirty bits: its code and
	// initialized data are "portions that are never modified" (§3.1.2).
	as.ClearDirty()

	p := lh.NewProcess(as.ID, img.Kind, kernel.Regs{})
	pm.progs[lh.ID()] = &progInfo{lh: lh, name: progName, args: args, stdout: stdout, guest: guest}
	return vid.Message{Op: PmCreateProgram, W: [6]uint32{uint32(p.PID()), uint32(lh.ID())}}
}

// loadFile fetches a file from a network file server in 32 KB reads.
// Reads pin the replica that answered the stat; if that server dies or
// loses authority mid-load, the loop re-resolves once through the
// file-server group and resumes the same chunk — an image load survives a
// file-server crash instead of aborting the execution request.
func (pm *PM) loadFile(ctx *kernel.ProcCtx, name string) ([]byte, vid.PID, error) {
	fs := pm.fsPID
	st, err := ctx.Send(orGroup(fs), vid.Message{
		Op: fsOpStat, W: [6]uint32{0, 0, 0, 0, 0, unicastFlag(fs)}, Seg: []byte(name),
	})
	if err != nil || !st.OK() {
		// Retry through the group in case a cached server died. A replicated
		// store can also be leaderless mid-election (every replica silent),
		// so silence and transport errors get a few spaced attempts; a
		// definitive reply (e.g. no such file) is never retried.
		pm.fsPID = vid.Nil
		for attempt := 0; ; attempt++ {
			st, err = ctx.Send(vid.GroupFileServers, vid.Message{Op: fsOpStat, Seg: []byte(name)})
			if err == nil || attempt == 2 {
				break
			}
			ctx.Sleep(500 * time.Millisecond)
		}
		if err != nil || !st.OK() {
			return nil, vid.Nil, fsError(st, err)
		}
	}
	if pid := vid.PID(st.W[5]); pid != vid.Nil {
		pm.fsPID = pid
	}
	size := int(st.W[0])
	out := make([]byte, 0, size)
	for off := 0; off < size; off += vid.SegMax {
		n := size - off
		if n > vid.SegMax {
			n = vid.SegMax
		}
		read := vid.Message{
			Op: fsOpRead, W: [6]uint32{uint32(off), uint32(n), 0, 0, 0, fsUnicast},
			Seg: []byte(name),
		}
		r, err := ctx.Send(pm.fsPID, read)
		if err != nil || !r.OK() {
			// Pinned server gone mid-read: re-stat through the group to find
			// a live authoritative replica, then retry this chunk once.
			pm.fsPID = vid.Nil
			st, err2 := ctx.Send(vid.GroupFileServers, vid.Message{Op: fsOpStat, Seg: []byte(name)})
			if err2 != nil || !st.OK() {
				return nil, vid.Nil, fsError(r, err)
			}
			if pid := vid.PID(st.W[5]); pid != vid.Nil {
				pm.fsPID = pid
			}
			read.W[5] = unicastFlag(pm.fsPID)
			if r, err = ctx.Send(orGroup(pm.fsPID), read); err != nil || !r.OK() {
				return nil, vid.Nil, fsError(r, err)
			}
		}
		out = append(out, r.Seg...)
	}
	return out, pm.fsPID, nil
}

// dallySlot spreads multicast select replies over a window: a
// deterministic hash of (station, transaction) picks the slot, so a
// retransmitted query meets the same reply schedule and double runs stay
// byte-identical.
func dallySlot(mac uint64, txid uint32, window time.Duration) time.Duration {
	us := uint64(window / time.Microsecond)
	if us == 0 {
		return 0
	}
	return time.Duration(selectMix(mac, txid)%us) * time.Microsecond
}

// replyLottery draws this host's deterministic permille ticket for a
// thinned multicast query. Salted differently from dallySlot so the
// sample of repliers and their dally slots stay uncorrelated.
func replyLottery(mac uint64, txid uint32) uint32 {
	return uint32(selectMix(mac^0xA5A5A5A5A5A5A5A5, txid) % 1000)
}

// selectMix hashes (station, transaction) into a well-spread 64-bit
// value; retransmissions reuse the TxID, so a host's draw is stable
// across resends of the same query.
func selectMix(mac uint64, txid uint32) uint64 {
	h := mac*0x9E3779B97F4A7C15 ^ uint64(txid)*0xC2B2AE3D27D4EB4F
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	return h
}

// fsError keeps the transport's verdict on a failed file-server RPC. A
// congested or dead server yields CodeTimeout/CodeHostDown — transient
// conditions the exec layer may retry; only the server's own answer is
// allowed to say an image does not exist. Collapsing every failure to
// not-found (the old behavior) made a saturated file server
// indistinguishable from a typo in the program name.
func fsError(m vid.Message, err error) error {
	if err != nil {
		return err
	}
	if m.Code == vid.CodeOK {
		return vid.CodeError(vid.CodeNotFound)
	}
	return vid.CodeError(m.Code)
}

func orGroup(pid vid.PID) vid.PID {
	if pid == vid.Nil {
		return vid.GroupFileServers
	}
	return pid
}

// File-server op codes, duplicated here to avoid importing fileserver
// (which imports kernel; no cycle actually — but keep the wire contract
// explicit).
const (
	fsOpStat uint16 = 0x50
	fsOpRead uint16 = 0x51

	// fsUnicast in a request's W5 tells a replicated file server the sender
	// addressed it directly, so a non-authoritative replica must answer
	// CodeNotLeader instead of staying silent (fileserver.FsUnicast).
	fsUnicast uint32 = 1
)

// unicastFlag returns the W5 unicast marker when pid names one server (as
// opposed to the file-server group).
func unicastFlag(pid vid.PID) uint32 {
	if pid == vid.Nil {
		return 0
	}
	return fsUnicast
}

// initMigration is the receiving side of §3.1.1: allocate a placeholder
// logical host under a different id, create its address spaces, freeze it,
// and remember the identity it will assume.
func (pm *PM) initMigration(ctx *kernel.ProcCtx, m vid.Message) vid.Message {
	req, err := DecodeInitReq(m.Seg)
	if err != nil {
		return vid.ErrMsg(vid.CodeBadRequest)
	}
	var need uint32
	for _, sd := range req.Spaces {
		need += sd.Size
	}
	if need > pm.host.MemFree() {
		return vid.ErrMsg(vid.CodeNoMemory)
	}
	ctx.Compute(params.KernelOpCPU)
	lh := pm.host.CreateLH(req.Name, req.Guest)
	for _, sd := range req.Spaces {
		if _, err := lh.InstallSpace(sd.ID, sd.Size); err != nil {
			pm.host.DestroyLH(lh)
			return vid.ErrMsg(vid.CodeNoMemory)
		}
	}
	pm.host.Freeze(lh)
	pm.progs[req.FinalLH] = &progInfo{
		lh: lh, name: req.Name, args: req.Args, stdout: req.Stdout,
		guest: req.Guest, incoming: true, srcLH: req.SrcLH,
	}
	// A receptacle whose source dies mid-copy never assumes its final
	// identity; garbage-collect it once the transfer goes idle so it
	// cannot pin memory forever.
	tempID := lh.ID()
	pm.host.Eng.After(params.ReceptacleTTL, func() {
		pm.reapReceptacle(req.FinalLH, tempID)
	})
	return vid.Message{Op: m.Op, W: [6]uint32{
		uint32(lh.ID()), uint32(pm.host.SystemLH().ID()), 0, 0, 0, uint32(pm.PID()),
	}}
}

// reapReceptacle destroys an incoming receptacle that never assumed its
// final identity and whose transfer has gone idle for ReceptacleTTL (the
// source died before the swap). The TTL is an *inactivity* timeout: while
// page runs are still arriving — a legitimately slow copy under heavy loss
// and retransmission — the reaper re-arms instead of killing a live
// migration mid-transfer.
func (pm *PM) reapReceptacle(final, tempID vid.LHID) {
	if pm.host.Crashed() {
		return
	}
	pi := pm.progs[final]
	if pi == nil || !pi.incoming || pi.lh.ID() != tempID {
		return // assumed, swapped, or already torn down
	}
	if cur, ok := pm.host.LookupLH(tempID); !ok || cur != pi.lh {
		return
	}
	if idle := pm.host.Eng.Now().Sub(pi.lh.LastWriteAt()); idle < params.ReceptacleTTL {
		pm.host.Eng.After(params.ReceptacleTTL-idle, func() {
			pm.reapReceptacle(final, tempID)
		})
		return
	}
	pm.host.DestroyLH(pi.lh)
	delete(pm.progs, final)
}

// onLHIDChanged runs when a resident logical host assumes a new identity.
// For an incoming migration receptacle this is the atomic swap of §3.1.1:
// from here on the new copy owns the identity, so if the source dies
// before sending its unfreeze/assume messages, the destination must
// finish the hand-over itself (source death after the swap leaves the new
// copy authoritative, §3.1.3). Adoption is handed to the pm-adopt worker,
// which first *probes* the source: a source that is alive but slow or
// unreachable must keep the original authoritative.
func (pm *PM) onLHIDChanged(lh *kernel.LogicalHost, old vid.LHID) {
	pi := pm.progs[lh.ID()]
	if pi == nil || !pi.incoming || pi.lh != lh {
		return
	}
	job := &adoptJob{final: lh.ID(), lh: lh, srcLH: pi.srcLH}
	pm.host.Eng.After(params.OrphanAdoptDelay, func() { pm.adoptQ = append(pm.adoptQ, job) })
}

// adoptLoop is the pm-adopt worker: it serializes orphan-adoption checks,
// each of which may block in a liveness probe of the migration source.
func (pm *PM) adoptLoop(ctx *kernel.ProcCtx) {
	for {
		if len(pm.adoptQ) == 0 {
			ctx.Sleep(pollInterval)
			continue
		}
		job := pm.adoptQ[0]
		pm.adoptQ = pm.adoptQ[1:]
		pm.checkOrphan(ctx, job)
	}
}

// checkOrphan decides the fate of a post-swap copy whose source has not
// finished the hand-over. In the normal case the source has long since
// unfrozen the copy and sent PmAssumeMigration, making this a no-op.
// Otherwise the copy owns the identity but is still frozen, and the
// destination must distinguish source *death* (adopt: the new copy is
// authoritative, §3.1.3) from source *unreachability* (hold off: the live
// source will abort its ~5 s send and unfreeze the original, and adopting
// too would run the same logical host twice). It probes the source kernel
// for the migrated LHID:
//
//   - source answers "resident, frozen": hand-over still in flight — check
//     again later;
//   - source answers "resident, unfrozen": the source aborted and the
//     original is authoritative — discard the local copy;
//   - source answers "not resident": the source finished (its unfreeze or
//     assume messages were lost) or rebooted (the original died with it) —
//     adopt;
//   - no answer for a continuous OrphanSilence window (≈10 s, comfortably
//     beyond the source's own send abort): presume the source dead — adopt.
//     The window is enforced by the clock, not by counting probe failures:
//     the failure detector fails probes to a suspected station within a
//     retransmission tick, so counting aborts would collapse the guard to
//     well under a second.
func (pm *PM) checkOrphan(ctx *kernel.ProcCtx, job *adoptJob) {
	live := func() bool {
		pi := pm.progs[job.final]
		if pi == nil || !pi.incoming || pi.lh != job.lh {
			return false // assumed or torn down meanwhile
		}
		cur, ok := pm.host.LookupLH(job.final)
		return ok && cur == job.lh
	}
	if !live() {
		return
	}
	if job.srcLH != 0 {
		m, err := ctx.Send(kernel.KernelServerPID(job.srcLH), vid.Message{
			Op: kernel.KsQueryLH, W: [6]uint32{uint32(job.final)},
		})
		if !live() { // the probe blocked; the hand-over may have finished
			return
		}
		switch {
		case err == nil && m.OK() && m.W[3] != 0:
			// Original still frozen at the source: migration in flight.
			job.silentSince = 0
			pm.host.Eng.After(params.OrphanAdoptDelay, func() {
				pm.adoptQ = append(pm.adoptQ, job)
			})
			return
		case err == nil && m.OK():
			// Original resident and running: the source aborted the
			// migration after the swap; defer to it and discard the copy.
			pm.host.DestroyLH(job.lh)
			delete(pm.progs, job.final)
			return
		case err != nil:
			if job.silentSince == 0 {
				job.silentSince = ctx.Now()
			}
			if ctx.Now().Sub(job.silentSince) < params.OrphanSilence {
				// Still inside the split-brain guard window: probe again
				// after a delay (probes to a suspected station fail in a
				// tick, so pace them rather than spinning).
				pm.host.Eng.After(params.OrphanAdoptDelay, func() {
					pm.adoptQ = append(pm.adoptQ, job)
				})
				return
			}
			// Prolonged silence: presume the source dead and adopt.
		default:
			// Source alive, original gone: the hand-over completed — adopt.
		}
	}
	pi := pm.progs[job.final]
	pi.incoming = false
	if job.lh.Frozen() {
		pm.host.Unfreeze(job.lh, true)
	}
}

// AssumeIncoming finalizes an incoming migration: the placeholder has been
// relabeled with the final LHID (by the kernel's ChangeLHID); mark the
// program as owned. If the copy is still frozen — the source's direct
// unfreeze was lost but its assume notice got through — finish the
// unfreeze here, broadcasting the binding.
func (pm *PM) AssumeIncoming(final vid.LHID) {
	pi := pm.progs[final]
	if pi == nil {
		return
	}
	pi.incoming = false
	if pi.lh.ID() == final && pi.lh.Frozen() {
		pm.host.Unfreeze(pi.lh, true)
	}
}

// pollInterval is how often the reaper and migration worker check their
// queues when idle.
const pollInterval = 10 * time.Millisecond

// ---------------------------------------------------------------------------
// Exec-session supervision: leases and automatic guest recovery.
//
// The paper's stance on residual dependencies (§2.3) is that a remotely
// executed program should depend only on its home environment, so losing
// the hosting workstation should be no worse for the *user* than losing a
// local program. The supervisor closes that loop: the originating program
// manager keeps a session record per remote job, heartbeats the hosting
// manager with PmRenewLease, and on lease loss re-executes the program
// from its file-server image on a freshly selected host, with bounded
// attempts. Output is deduplicated by the display server (the session's
// one home-bound dependency), so the user-visible stream is exactly-once.

// Session states.
type sessionState uint8

const (
	sessionActive sessionState = iota
	sessionBroken
	sessionDone
	sessionFailed
)

func (s sessionState) String() string {
	switch s {
	case sessionActive:
		return "active"
	case sessionBroken:
		return "broken"
	case sessionDone:
		return "done"
	default:
		return "failed"
	}
}

// session is the originating manager's record of one supervised remote
// job.
type session struct {
	orig        vid.LHID // LHID at first execution — the callers' handle
	cur         vid.LHID // current incarnation's LHID
	pid         vid.PID
	name        string
	args        []string
	stdout      vid.PID
	minMem      uint32
	hostPM      vid.PID
	hostLH      vid.LHID // hosting workstation's system LH
	started     sim.Time // SessionInfo.Started: the job's identity on its slot
	incarnation int      // 1 for the first execution
	restarts    int      // recovery attempts consumed
	maxRestarts int
	state       sessionState
	exitCode    uint32
	lastRenew   sim.Time
	nextRetry   sim.Time // earliest next recovery attempt (broken only)
	waiters     []*ipc.Req
}

// finished reports whether the session has reached a final state.
func (s *session) finished() bool { return s.state == sessionDone || s.state == sessionFailed }

// SupStats counts a manager's supervision activity. The trace-event
// parity invariant holds cluster-wide: summed over all managers,
// LeaseExpires == EvLeaseExpire and ExecRestarts == EvExecRestart.
type SupStats struct {
	// LeaseRenews counts successful PmRenewLease round trips.
	LeaseRenews int64
	// LeaseExpires counts sessions broken by a failed or refused renewal
	// (detector-prompted breaks are not expiries and are not counted).
	LeaseExpires int64
	// ExecRestarts counts programs re-executed from their image — session
	// recoveries plus eviction re-executions.
	ExecRestarts int64
}

// SupStats snapshots the supervision counters.
func (pm *PM) SupStats() SupStats { return pm.sup }

// SessionInfo describes a remote job to Supervise.
type SessionInfo struct {
	LHID        vid.LHID
	PID         vid.PID
	Name        string
	Args        []string
	Stdout      vid.PID
	MinMem      uint32
	HostPM      vid.PID
	HostLH      vid.LHID
	MaxRestarts int
	// Started is when the agent started the program. It tells a late copy
	// of this record apart from a new job on the same, recycled LHID slot.
	Started sim.Time
}

// Supervise registers a remote job for lease supervision. The originating
// agent (same host) calls it right after the program starts; with a home
// group the agent sends PmSupervise instead, and the group leader calls it.
func (pm *PM) Supervise(ctx *kernel.ProcCtx, si SessionInfo) error {
	return pm.commit(ctx, &hgCmd{Kind: hgSupervise, Sess: &si, At: int64(ctx.Now())})
}

// sessionFor resolves a session by any of its incarnations' LHIDs.
func (pm *PM) sessionFor(lhid vid.LHID) *session {
	if orig, ok := pm.alias[lhid]; ok {
		lhid = orig
	}
	return pm.sessions[lhid]
}

// NoteExited marks a supervised session finished (the agent's Wait saw
// the exit), stopping further lease traffic. A session that is already
// finished, or unknown, costs no log entry.
func (pm *PM) NoteExited(ctx *kernel.ProcCtx, lhid vid.LHID, code uint32) error {
	s := pm.sessionFor(lhid)
	if s == nil || s.finished() {
		return nil
	}
	return pm.commit(ctx, &hgCmd{Kind: hgDone, Orig: s.orig, Code: code})
}

// NoteHostDown breaks every active session hosted on the crashed station;
// the lease worker recovers them immediately instead of waiting out the
// next renewal.
func (pm *PM) NoteHostDown(mac uint16) {
	for _, s := range pm.sessions {
		if s.state == sessionActive && s.hostLH.Station() == mac {
			s.state = sessionBroken
			s.nextRetry = pm.host.Eng.Now()
		}
	}
}

// NoteHostSuspect reacts to this host's failure detector suspecting a
// station. Recovery starts with a locate query, so a false suspicion
// costs a group round trip, never a double execution.
func (pm *PM) NoteHostSuspect(mac uint16) { pm.NoteHostDown(mac) }

// SessionView is one supervised session, for operator tooling.
type SessionView struct {
	LHID        vid.LHID // original LHID — the job handle
	CurLH       vid.LHID
	PID         vid.PID
	Name        string
	HostLH      vid.LHID
	Incarnation int
	Restarts    int
	State       string
	LeaseAge    time.Duration
	ExitCode    uint32
}

// Sessions lists the manager's supervised sessions, ordered by original
// LHID.
func (pm *PM) Sessions() []SessionView {
	ids := make([]vid.LHID, 0, len(pm.sessions))
	for id := range pm.sessions {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]SessionView, 0, len(ids))
	for _, id := range ids {
		s := pm.sessions[id]
		out = append(out, SessionView{
			LHID: s.orig, CurLH: s.cur, PID: s.pid, Name: s.name,
			HostLH: s.hostLH, Incarnation: s.incarnation, Restarts: s.restarts,
			State: s.state.String(), LeaseAge: pm.host.Eng.Now().Sub(s.lastRenew),
			ExitCode: s.exitCode,
		})
	}
	return out
}

// reapJob is one remote program to destroy with retry — created but never
// started (the start failed or was partitioned away), or left behind by a
// failed recovery attempt.
type reapJob struct {
	pm       vid.PID
	lhid     vid.LHID
	attempts int
	next     sim.Time
}

// ReapRemote queues a created-but-unstarted remote program for destruction
// once its manager is reachable again, so a failed Exec cannot leak the
// execution environment it created.
func (pm *PM) ReapRemote(target vid.PID, lhid vid.LHID) {
	pm.reapQ = append(pm.reapQ, &reapJob{pm: target, lhid: lhid, next: pm.host.Eng.Now()})
}

// reapRetry paces reap attempts against an unreachable manager.
const reapRetry = 2 * time.Second

// reapMaxAttempts bounds reaping of a manager that never comes back (its
// programs died with it anyway).
const reapMaxAttempts = 10

// leaseLoop is the pm-lease worker: it renews session leases, recovers
// broken sessions, and drains the remote-reap queue. Sessions are visited
// in sorted LHID order — map iteration order must not reach the wire.
func (pm *PM) leaseLoop(ctx *kernel.ProcCtx) {
	for {
		ctx.Sleep(pollInterval)
		pm.drainReapQ(ctx)
		pm.drainHomePend(ctx)
		ids := make([]vid.LHID, 0, len(pm.sessions))
		for id := range pm.sessions {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		// With a home group only the fenced leader acts on live sessions; a
		// follower (or deposed leader) instead points any waiters it holds
		// back at the group, where the current leader will hold or answer
		// them. Exit results are served by every replica.
		leading := pm.homeLeading()
		for _, id := range ids {
			s := pm.sessions[id]
			switch s.state {
			case sessionActive, sessionBroken:
				if !leading {
					pm.flushWaiters(ctx, s, movedReply(PmWaitProgram, s.orig,
						movedTo{pm: vid.GroupHomePMs, lh: s.cur}))
					continue
				}
			}
			switch s.state {
			case sessionActive:
				if ctx.Now().Sub(s.lastRenew) >= params.LeaseInterval {
					pm.renew(ctx, s)
				}
			case sessionBroken:
				if ctx.Now() >= s.nextRetry {
					pm.recover(ctx, s)
				}
			case sessionDone:
				pm.flushWaiters(ctx, s, vid.Message{Op: PmWaitProgram, W: [6]uint32{s.exitCode}})
			case sessionFailed:
				pm.flushWaiters(ctx, s, vid.Message{Op: PmWaitProgram, Code: vid.CodeAborted})
			}
		}
	}
}

func (pm *PM) flushWaiters(ctx *kernel.ProcCtx, s *session, m vid.Message) {
	ws := s.waiters
	s.waiters = nil
	for _, w := range ws {
		pm.replyAsPM(ctx, w, m)
	}
}

// renew is one lease heartbeat with the hosting manager.
func (pm *PM) renew(ctx *kernel.ProcCtx, s *session) {
	m, err := ctx.Send(s.hostPM, vid.Message{Op: PmRenewLease, W: [6]uint32{uint32(s.cur)}})
	if s.state != sessionActive {
		return // broken or resolved while the send blocked
	}
	switch {
	case err == nil && m.Code == CodeMoved:
		// The hosting manager migrated or re-executed the program away:
		// follow the forwarding record. A topology change must survive a
		// home fail-over, so a replicated registry commits it.
		hostPM := vid.PID(m.W[1])
		if pm.commit(ctx, &hgCmd{
			Kind: hgRenewed, Orig: s.orig, At: int64(ctx.Now()),
			HostPM: uint32(hostPM), HostLH: uint32(hostPM.LH()), NewLH: m.W[2],
		}) != nil {
			return // lost the majority; the next leader follows the move
		}
		pm.sup.LeaseRenews++
	case err == nil && m.OK() && m.W[1] == 1:
		// Plain renewal: leader-local only. A follower promoted later sees
		// a stale lastRenew and simply renews immediately — cheaper than a
		// log entry per heartbeat.
		s.lastRenew = ctx.Now()
		pm.sup.LeaseRenews++
	case err == nil && m.OK() && m.W[1] == 2:
		pm.commit(ctx, &hgCmd{Kind: hgDone, Orig: s.orig, Code: m.W[2]})
	default:
		// Transport failure (timeout or host-down) or not-found: the
		// lease is lost and the session is broken.
		pm.expireLease(ctx, s)
	}
}

// rebindSession repoints a session at a new incarnation LHID, keeping old
// LHIDs resolvable for handles issued earlier.
func (pm *PM) rebindSession(s *session, newLH vid.LHID) {
	if newLH != s.orig {
		pm.alias[newLH] = s.orig
	}
	s.cur = newLH
	s.pid = vid.NewPID(newLH, vid.IdxFirstProcess)
}

// expireLease breaks a session on lease loss, with the trace event and
// counter (detector-prompted breaks go through NoteHostDown instead and
// publish nothing — the detector already did).
func (pm *PM) expireLease(ctx *kernel.ProcCtx, s *session) {
	if pm.commit(ctx, &hgCmd{Kind: hgBreak, Orig: s.orig, At: int64(ctx.Now())}) != nil {
		return // deposed; the next leader re-detects the loss itself
	}
	pm.sup.LeaseExpires++
	pm.host.Trace().Publish(trace.Event{
		At: ctx.Now(), Host: uint16(pm.host.NIC.MAC()), Kind: trace.EvLeaseExpire,
		LH: s.cur, Peer: s.hostLH.Station(),
	})
}

// recover resolves a broken session: find the program if some host still
// runs it, else re-execute it from its image, else fail the session.
func (pm *PM) recover(ctx *kernel.ProcCtx, s *session) {
	// 1. Double-execution guard: ask the manager group who runs it. Only
	// the manager actually running the program answers (everyone else
	// keeps silent), so one reply is authoritative; the group send is
	// bounded by the short group abort, not the full unicast allowance.
	m, err := ctx.Send(vid.GroupProgramManagers, vid.Message{
		Op: PmLocateProgram, W: [6]uint32{uint32(s.cur)},
	})
	if s.state != sessionBroken {
		return
	}
	if err == nil && m.OK() {
		// Still running — the host was falsely suspected, or the program
		// moved and the forwarding record died with its manager.
		if pm.commit(ctx, &hgCmd{
			Kind: hgRenewed, Orig: s.orig, At: int64(ctx.Now()),
			HostPM: m.W[5], HostLH: m.W[0],
		}) != nil {
			return
		}
		pm.flushWaiters(ctx, s, movedReply(PmWaitProgram, s.orig, movedTo{pm: s.hostPM, lh: s.cur}))
		return
	}
	// 2. Nobody runs it: re-execute, with bounded attempts.
	if s.restarts >= s.maxRestarts || pm.Selector == nil {
		pm.failSession(ctx, s)
		return
	}
	// Commit the restart intent BEFORE creating anything: this is the
	// fence that makes a stale minority leader harmless. It cannot reach a
	// majority, so its Submit times out here and no second incarnation is
	// ever started — the locate query above plus this committed intent
	// together uphold the double-execution guard across views.
	if pm.commit(ctx, &hgCmd{Kind: hgIntent, Orig: s.orig, Attempt: s.restarts + 1}) != nil {
		return
	}
	if !pm.reexecSession(ctx, s) {
		if s.restarts >= s.maxRestarts {
			pm.failSession(ctx, s)
			return
		}
		// Exponential backoff before the next attempt.
		backoff := ctx.Now().Add(params.ExecRestartBackoff << (s.restarts - 1))
		pm.commit(ctx, &hgCmd{Kind: hgRetryAt, Orig: s.orig, At: int64(backoff)})
	}
}

// reexecSession runs one recovery attempt: select a host (never the lost
// one, never our own), create the program there, pre-announce the
// incarnation change to the output sink, and start it.
func (pm *PM) reexecSession(ctx *kernel.ProcCtx, s *session) bool {
	l, err := pm.Selector.Select(ctx, s.minMem, s.hostLH, pm.host.SystemLH().ID())
	if err != nil {
		return false
	}
	seg := []byte(strings.Join(append([]string{s.name}, s.args...), "\x00"))
	cm, err := ctx.Send(l.PM, vid.Message{
		Op: PmCreateProgram, W: [6]uint32{uint32(s.stdout), 1}, Seg: seg,
	})
	if err != nil || !cm.OK() {
		return false
	}
	newPID, newLH := vid.PID(cm.W[0]), vid.LHID(cm.W[1])
	if s.stdout != vid.Nil {
		// The new incarnation replays output from the start; the display
		// suppresses what the previous incarnation already delivered
		// (at-most-once per logical line). Must land before the start.
		ctx.Send(s.stdout, vid.Message{Op: supOpAdopt, W: [6]uint32{uint32(s.cur), uint32(newLH)}})
	}
	sm, err := ctx.Send(kernel.KernelServerPID(newLH), vid.Message{
		Op: kernel.KsStartProcess, W: [6]uint32{uint32(newPID)},
	})
	if err != nil || !sm.OK() {
		if _, e := ctx.Send(l.PM, vid.Message{
			Op: PmDestroyProgram, W: [6]uint32{uint32(newLH)},
		}); e != nil {
			pm.ReapRemote(l.PM, newLH)
		}
		return false
	}
	if pm.commit(ctx, &hgCmd{
		Kind: hgRebind, Orig: s.orig, At: int64(ctx.Now()),
		NewLH: uint32(newLH), NewPID: uint32(newPID),
		HostPM: uint32(l.PM), HostLH: uint32(l.SystemLH),
	}) != nil {
		// Deposed between start and commit: this incarnation is not in
		// the replicated registry, so destroy it best-effort. Should the
		// destroy also fail, the orphan is bounded by maxRestarts and
		// the display's adoption counts keep user output exactly-once.
		if _, e := ctx.Send(l.PM, vid.Message{
			Op: PmDestroyProgram, W: [6]uint32{uint32(newLH)},
		}); e != nil {
			pm.ReapRemote(l.PM, newLH)
		}
		return false
	}
	pm.sup.ExecRestarts++
	pm.host.Trace().Publish(trace.Event{
		At: ctx.Now(), Host: uint16(pm.host.NIC.MAC()), Kind: trace.EvExecRestart,
		LH: newLH, Peer: l.SystemLH.Station(), Prio: s.incarnation,
	})
	pm.flushWaiters(ctx, s, movedReply(PmWaitProgram, s.orig, movedTo{pm: s.hostPM, lh: s.cur}))
	return true
}

// failSession gives up on a session: waiters see an abort and the user
// gets a notification line.
func (pm *PM) failSession(ctx *kernel.ProcCtx, s *session) {
	if pm.commit(ctx, &hgCmd{Kind: hgFailed, Orig: s.orig}) != nil {
		return // deposed; the next leader decides the session's fate
	}
	pm.flushWaiters(ctx, s, vid.Message{Op: PmWaitProgram, Code: vid.CodeAborted})
	if s.stdout != vid.Nil {
		ctx.Send(s.stdout, vid.Message{Op: vvm.OpWriteLine, Seg: []byte(
			fmt.Sprintf("[progmgr %s] %s: host lost, restarts exhausted; giving up", pm.host.Name, s.name)),
		})
	}
}

// drainReapQ retries at most one due remote destruction per tick.
func (pm *PM) drainReapQ(ctx *kernel.ProcCtx) {
	for i := 0; i < len(pm.reapQ); i++ {
		j := pm.reapQ[i]
		if ctx.Now() < j.next {
			continue
		}
		pm.reapQ = append(pm.reapQ[:i], pm.reapQ[i+1:]...)
		if _, err := ctx.Send(j.pm, vid.Message{
			Op: PmDestroyProgram, W: [6]uint32{uint32(j.lhid)},
		}); err != nil {
			// Unreachable (or still down): try again later, boundedly. Any
			// definitive reply — OK or not-found — settles the job.
			j.attempts++
			if j.attempts < reapMaxAttempts {
				j.next = ctx.Now().Add(reapRetry)
				pm.reapQ = append(pm.reapQ, j)
			}
		}
		return
	}
}

// supOpAdopt duplicates display.OpAdopt — the output-stream adoption
// notice (W0 = superseded LHID, W1 = successor LHID) — to keep the wire
// contract explicit without importing the display server.
const supOpAdopt uint16 = 0x72
