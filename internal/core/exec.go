package core

import (
	"errors"
	"strings"
	"time"

	"vsystem/internal/kernel"
	"vsystem/internal/params"
	"vsystem/internal/progmgr"
	"vsystem/internal/trace"
	"vsystem/internal/vid"
)

// HostSel identifies a selected execution host.
type HostSel struct {
	PM       vid.PID
	SystemLH vid.LHID
	MemFree  uint32
}

// MAC returns the selected host's station address (derived from the
// system logical-host id, whose station field is the host index + 1).
func (s HostSel) MAC() uint16 { return s.SystemLH.Station() }

// ErrNoHost means no workstation answered a selection query.
var ErrNoHost = errors.New("core: no host available")

// SelectVia routes a host-selection query through the node's scheduling
// selector (policy + cached load view) and adapts the result.
func (n *Node) SelectVia(ctx *kernel.ProcCtx, minMem uint32, exclude ...vid.LHID) (HostSel, error) {
	l, err := n.Selector.Select(ctx, minMem, exclude...)
	if err != nil {
		return HostSel{}, ErrNoHost
	}
	return HostSel{PM: l.PM, SystemLH: l.SystemLH, MemFree: l.MemFree}, nil
}

// SelectHost picks an idle workstation by multicasting to the
// program-manager group and taking the first response — the paper's
// decentralized scheduler ("it simply selects the program manager that
// responds first since that is generally the least loaded host", §2.1).
// exclude suppresses up to four system logical hosts — typically the
// caller's own plus destinations a retried migration already saw fail.
func SelectHost(ctx *kernel.ProcCtx, minMem uint32, exclude ...vid.LHID) (HostSel, error) {
	var w [6]uint32
	w[0] = minMem
	for i, lh := range exclude {
		if i >= 4 {
			break
		}
		w[i+1] = uint32(lh)
	}
	for attempt := 0; attempt < 2; attempt++ {
		m, err := ctx.Send(vid.GroupProgramManagers, vid.Message{
			Op: progmgr.PmSelectHost,
			W:  w,
		})
		if err == nil && m.OK() {
			return HostSel{
				PM:       vid.PID(m.W[5]),
				SystemLH: vid.LHID(m.W[0]),
				MemFree:  m.W[1],
			}, nil
		}
	}
	return HostSel{}, ErrNoHost
}

// FindHost resolves a workstation by name through the program-manager
// group (the `@ machine-name` form).
func FindHost(ctx *kernel.ProcCtx, name string) (HostSel, error) {
	m, err := ctx.Send(vid.GroupProgramManagers, vid.Message{
		Op:  progmgr.PmQueryHost,
		Seg: []byte(name),
	})
	if err != nil || !m.OK() {
		return HostSel{}, ErrNoHost
	}
	return HostSel{PM: vid.PID(m.W[5]), SystemLH: vid.LHID(m.W[0])}, nil
}

// Job is a handle to an executing program.
type Job struct {
	Name string
	PID  vid.PID  // initial process
	LHID vid.LHID // the program's logical host (stable across migration)
	PM   vid.PID  // program manager currently responsible
	Host string   // where it started (diagnostic)
}

// ExecMinMem is the default free-memory requirement used for `@ *`
// selection when the image size is not yet known.
const ExecMinMem = 256 * 1024

// Exec runs a program, paralleling the command-interpreter syntax:
// where is "" (local), "*" (any idle machine), or a host name. Remote
// executions are supervised with the default restart budget.
func (a *Agent) Exec(prog string, args []string, where string) (*Job, error) {
	return a.ExecR(prog, args, where, params.ExecMaxRestarts)
}

// ExecR is Exec with an explicit restart budget (0 disables recovery):
// how many times the home program manager may re-execute the program from
// its file-server image if the hosting workstation is lost.
//
// The sequence follows §2.1: select a program manager, send it the
// program-creation request (it builds the address space, loads the image
// from the file server, initializes arguments, environment, and default
// I/O), then start the program by "replying to its initial process" — a
// start operation to the kernel server addressed through the new logical
// host. A remote job is then registered with the home program manager's
// session supervisor, which leases it from the hosting manager and
// recovers it if that host dies (§2.3's residual-dependency stance: the
// remote program should depend on nothing of the hosting workstation the
// home environment cannot replace).
func (a *Agent) ExecR(prog string, args []string, where string, maxRestarts int) (*Job, error) {
	ctx := a.ctx
	var sel HostSel
	var err error
	switch where {
	case "", "local":
		sel = HostSel{
			PM:       a.node.PM.PID(),
			SystemLH: a.node.Host.SystemLH().ID(),
		}
	case "*":
		// "some other lightly loaded machine" (§4.3): exclude the home
		// workstation.
		sel, err = a.node.SelectVia(ctx, ExecMinMem, a.node.Host.SystemLH().ID())
	default:
		sel, err = FindHost(ctx, where)
	}
	if err != nil {
		return nil, err
	}
	guest := uint32(0)
	if sel.SystemLH != a.node.Host.SystemLH().ID() {
		guest = 1
	}
	seg := []byte(strings.Join(append([]string{prog}, args...), "\x00"))
	m, err := ctx.Send(sel.PM, vid.Message{
		Op:  progmgr.PmCreateProgram,
		W:   [6]uint32{uint32(a.node.Display.PID()), guest},
		Seg: seg,
	})
	if err != nil {
		return nil, err
	}
	if !m.OK() {
		return nil, m.Err()
	}
	job := &Job{
		Name: prog,
		PID:  vid.PID(m.W[0]),
		LHID: vid.LHID(m.W[1]),
		PM:   sel.PM,
		Host: whereName(a, sel),
	}
	// Start the program: the creator's go-ahead to the initial process,
	// via the kernel server reachable through the program's logical host.
	sm, err := ctx.Send(kernel.KernelServerPID(job.LHID), vid.Message{
		Op: kernel.KsStartProcess,
		W:  [6]uint32{uint32(job.PID)},
	})
	if err != nil || !sm.OK() {
		// The environment was created but the program never started: reap
		// it so the failed Exec does not leak an address space on the
		// remote manager. If the manager is unreachable too, hand the job
		// to the home manager's retrying reaper.
		if _, e := ctx.Send(sel.PM, vid.Message{
			Op: progmgr.PmDestroyProgram, W: [6]uint32{uint32(job.LHID)},
		}); e != nil {
			a.node.PM.ReapRemote(sel.PM, job.LHID)
		}
		if err != nil {
			return nil, err
		}
		return nil, sm.Err()
	}
	if guest == 1 && maxRestarts > 0 {
		a.superviseSession(&progmgr.SessionInfo{
			LHID: job.LHID, PID: job.PID, Name: prog, Args: args,
			Stdout: a.node.Display.PID(), MinMem: ExecMinMem,
			HostPM: sel.PM, HostLH: sel.SystemLH, MaxRestarts: maxRestarts,
			Started: ctx.Now(),
		})
	}
	return job, nil
}

// superviseSession registers a remote job with the home supervisor: the
// replicated home group when the cluster runs one (the record lands in the
// consensus registry and survives any single member's death), else this
// workstation's own manager.
func (a *Agent) superviseSession(si *progmgr.SessionInfo) {
	if a.node.cluster.homeEnabled() {
		seg := progmgr.EncodeSessionInfo(si)
		for attempt := 0; attempt < 4; attempt++ {
			m, err := a.ctx.Send(vid.GroupHomePMs, vid.Message{
				Op: progmgr.PmSupervise, Seg: seg,
			})
			if err == nil && m.OK() {
				return
			}
			// Group silence usually means an election in progress (boot, or
			// a member just died); give it a beat and re-ask.
			a.Sleep(300 * time.Millisecond)
		}
		if a.node.PM.HomeReplica() != nil {
			// This workstation is itself a group member: its registry changes
			// only through the log, which has no reachable leader. Park the
			// record instead; the lease worker re-proposes it through the
			// group once a leader is reachable.
			a.node.PM.QueueHomeSupervise(*si)
			return
		}
		// Group unreachable (mid-election or partitioned away) and this
		// manager is not a member: plain local supervision is safe here and
		// keeps the job watched by *someone*.
	}
	// A manager outside the home group applies in place, which cannot fail.
	_ = a.node.PM.Supervise(a.ctx, *si)
}

// homeWaitTarget is where a Wait retreats when the hosting manager cannot
// answer: the home group when replicated, else the home workstation's own
// manager.
func (a *Agent) homeWaitTarget() vid.PID {
	if a.node.cluster.homeEnabled() {
		return vid.GroupHomePMs
	}
	return a.node.PM.PID()
}

// noteExited tells the home supervisor the session is over (stops the
// lease heartbeat; a no-op for unsupervised jobs).
func (a *Agent) noteExited(lhid vid.LHID, code uint32) {
	if a.node.cluster.homeEnabled() {
		if m, err := a.ctx.Send(vid.GroupHomePMs, vid.Message{
			Op: progmgr.PmNoteExited, W: [6]uint32{uint32(lhid), code},
		}); err == nil && m.OK() {
			return
		}
		// Group unreachable: harmless — the leader's next renewal sees the
		// exit code from the hosting manager and commits it then. A group
		// member leaves it to that renewal: only a committed entry may
		// change its replica.
		if a.node.PM.HomeReplica() != nil {
			return
		}
	}
	_ = a.node.PM.NoteExited(a.ctx, lhid, code) // applied in place: cannot fail
}

func whereName(a *Agent, sel HostSel) string {
	if n := a.node.cluster.NodeByLH(sel.SystemLH); n != nil {
		return n.Name()
	}
	return "?"
}

// ErrTooManyMoves means a Wait followed more CodeMoved redirects than
// WaitMaxMoves allows — a forwarding loop between managers rather than a
// legitimately mobile program.
var ErrTooManyMoves = errors.New("core: wait followed too many moves")

// Wait blocks until the job exits, following the program across
// migrations and supervised re-executions (a manager that no longer runs
// the program answers CodeMoved with the new manager's pid and, when the
// program was re-executed under a fresh identity, its new LHID). If the
// current manager is unreachable, Wait falls back to the home manager,
// which supervises the session. The redirect chain is capped at
// params.WaitMaxMoves so a buggy or split-brain manager pair cannot
// bounce a waiter forever.
func (a *Agent) Wait(job *Job) (uint32, error) {
	moves := 0
	for {
		w := [6]uint32{uint32(job.LHID)}
		if job.PM == vid.GroupHomePMs {
			// Home-group wait: the flag makes every member but the current
			// leader stay silent, so the group send has one authority.
			w[5] = progmgr.PmWaitHome
		}
		m, err := a.ctx.Send(job.PM, vid.Message{
			Op: progmgr.PmWaitProgram,
			W:  w,
		})
		if err != nil {
			if home := a.homeWaitTarget(); job.PM != home {
				job.PM = home
				if moves++; moves > params.WaitMaxMoves {
					return 0, ErrTooManyMoves
				}
				continue
			}
			if job.PM == vid.GroupHomePMs {
				// Group silence is mid-election, not absence: wait out a
				// lease interval and re-ask. The moves cap bounds the
				// patience if the group really is gone.
				if moves++; moves > params.WaitMaxMoves {
					return 0, ErrTooManyMoves
				}
				a.Sleep(params.LeaseInterval)
				continue
			}
			return 0, err
		}
		if m.Code == progmgr.CodeMoved {
			job.PM = vid.PID(m.W[1])
			if nl := vid.LHID(m.W[2]); nl != 0 {
				job.LHID = nl
			}
			if moves++; moves > params.WaitMaxMoves {
				return 0, ErrTooManyMoves
			}
			continue
		}
		if !m.OK() {
			// A hosting manager that tore its guest down administratively
			// (post-copy residue loss) answers aborted. The session's fate
			// is the home supervisor's call: once the broken lease expires
			// it re-executes the program (or fails the session), so re-ask
			// at home after a lease interval rather than surface the abort.
			if home := a.homeWaitTarget(); m.Code == vid.CodeAborted && job.PM != home {
				job.PM = home
				if moves++; moves > params.WaitMaxMoves {
					return 0, ErrTooManyMoves
				}
				a.Sleep(params.LeaseInterval)
				continue
			}
			return 0, m.Err()
		}
		a.noteExited(job.LHID, m.W[0])
		return m.W[0], nil
	}
}

// Migrate asks the job's current program manager to move it elsewhere
// (`migrateprog`). kill corresponds to the -n flag: destroy the program if
// no host will take it. On success the job's manager is updated from the
// report.
func (a *Agent) Migrate(job *Job, kill bool) (*MigrationReport, error) {
	w1 := uint32(0)
	if kill {
		w1 = 1
	}
	m, err := a.ctx.Send(job.PM, vid.Message{
		Op: progmgr.PmMigrateProgram,
		W:  [6]uint32{uint32(job.LHID), w1},
	})
	if err != nil {
		return nil, err
	}
	if !m.OK() {
		// The manager relays the failure phase in the refused reply
		// (W[0] = phase+1, W[1] = pre-copy round); reconstruct the typed
		// error so callers can errors.Is/As it.
		if m.W[0] != 0 {
			return nil, &PhaseError{
				Phase: trace.Phase(m.W[0] - 1), Round: int(m.W[1]), Err: m.Err(),
			}
		}
		return nil, m.Err()
	}
	if len(m.Seg) == 0 {
		return nil, nil // destroyed (-n with no host)
	}
	rep, err := DecodeReport(m.Seg)
	if err != nil {
		return nil, err
	}
	job.PM = rep.NewPM
	return rep, nil
}

// MigrateAll asks a node's program manager to remove all guest programs
// (`migrateprog` with no argument, the owner-returns operation).
func (a *Agent) MigrateAll(n *Node, kill bool) error {
	w1 := uint32(0)
	if kill {
		w1 = 1
	}
	m, err := a.ctx.Send(n.PM.PID(), vid.Message{
		Op: progmgr.PmMigrateProgram,
		W:  [6]uint32{0, w1},
	})
	if err != nil {
		return err
	}
	return m.Err()
}

// PS returns the program listing of a node.
func (a *Agent) PS(n *Node) (string, error) {
	m, err := a.ctx.Send(n.PM.PID(), vid.Message{Op: progmgr.PmQueryPrograms})
	if err != nil {
		return "", err
	}
	return m.SegString(), nil
}

// MinMemFor computes the selection memory requirement for a program of
// the given space size.
func MinMemFor(spaceSize uint32) uint32 {
	if spaceSize < params.PageSize {
		return params.PageSize
	}
	return spaceSize
}

// Select performs one decentralized host-selection query (experiments),
// through the node's configured selection policy.
func (a *Agent) Select(minMem uint32) (HostSel, error) {
	return a.node.SelectVia(a.ctx, minMem, a.node.Host.SystemLH().ID())
}

// CreateProgram sets up an execution environment on the selected host
// without starting the program (the experiment harness uses this to
// separate environment setup/teardown cost from execution).
func (a *Agent) CreateProgram(sel HostSel, prog string, args []string) (*Job, error) {
	guest := uint32(0)
	if sel.SystemLH != a.node.Host.SystemLH().ID() {
		guest = 1
	}
	m, err := a.ctx.Send(sel.PM, vid.Message{
		Op:  progmgr.PmCreateProgram,
		W:   [6]uint32{uint32(a.node.Display.PID()), guest},
		Seg: []byte(strings.Join(append([]string{prog}, args...), "\x00")),
	})
	if err != nil {
		return nil, err
	}
	if !m.OK() {
		return nil, m.Err()
	}
	return &Job{Name: prog, PID: vid.PID(m.W[0]), LHID: vid.LHID(m.W[1]), PM: sel.PM}, nil
}

// DestroyProgram tears a program down through its manager.
func (a *Agent) DestroyProgram(job *Job) error {
	m, err := a.ctx.Send(job.PM, vid.Message{
		Op: progmgr.PmDestroyProgram,
		W:  [6]uint32{uint32(job.LHID)},
	})
	if err != nil {
		return err
	}
	return m.Err()
}

// Suspend freezes a running program wherever it is — suspension is
// transparent to location (§2).
func (a *Agent) Suspend(job *Job) error {
	m, err := a.ctx.Send(job.PM, vid.Message{Op: progmgr.PmSuspendProgram, W: [6]uint32{uint32(job.LHID)}})
	if err != nil {
		return err
	}
	return m.Err()
}

// Resume unfreezes a suspended program.
func (a *Agent) Resume(job *Job) error {
	m, err := a.ctx.Send(job.PM, vid.Message{Op: progmgr.PmResumeProgram, W: [6]uint32{uint32(job.LHID)}})
	if err != nil {
		return err
	}
	return m.Err()
}

// Inspect reads a process's registers through the kernel server of its
// logical host — the V debugger's remote-transparent primitive (§6). It
// works wherever the program currently runs.
func (a *Agent) Inspect(pid vid.PID) (kernel.Regs, uint32, error) {
	m, err := a.ctx.Send(kernel.KernelServerPID(pid.LH()), vid.Message{
		Op: kernel.KsQueryProcess, W: [6]uint32{uint32(pid)},
	})
	if err != nil {
		return kernel.Regs{}, 0, err
	}
	if !m.OK() {
		return kernel.Regs{}, 0, m.Err()
	}
	regs, err := kernel.DecodeRegs(m.Seg)
	return regs, m.W[0], err
}
