package progmgr

import (
	"bytes"
	"encoding/gob"
	"sort"

	"vsystem/internal/kernel"
	"vsystem/internal/rsm"
	"vsystem/internal/sim"
	"vsystem/internal/vid"
)

// Home program-manager group: the session supervisor — the one home
// service the paper's §2.3 residual-dependency stance leaves as a single
// point of failure — becomes a consensus group. Member managers replicate
// the session registry (Supervise records, lease renewals, recovery
// bookkeeping, exit codes) through an rsm log; only the fenced leader runs
// the lease worker's renew/recover actions, and a failed leader's
// successor resumes them from the committed registry. Re-execution is
// double-fenced: the PmLocateProgram group query (only the running host
// answers) plus a committed restart-intent — a stale minority leader
// cannot commit the intent, so it can never start a second incarnation.
//
// The home display is deliberately NOT in the group: it is the session's
// one irreducible home dependency (the user's screen), and its per-chain
// delivered/lead counts already make re-executed output exactly-once.

// Home-group operations (0x3D region, after the PmLocateProgram block).
const (
	// PmSupervise: Seg = gob SessionInfo — register a session with the
	// home group. Only the group leader answers (commits, then OK);
	// followers stay silent, so agents address the group.
	PmSupervise uint16 = 0x3D
	// PmNoteExited: W0 = original LHID, W1 = exit code — the agent's Wait
	// saw the exit; stop lease traffic. Leader-only, like PmSupervise.
	PmNoteExited uint16 = 0x3E
)

// PmWaitHome in PmWaitProgram's W5 marks a wait addressed to the home
// group's registry: only the group leader answers (or holds the waiter);
// every other member stays silent. Without the flag PmWaitProgram keeps
// its hosting-manager semantics.
const PmWaitHome uint32 = 1

// EnableHomeGroup attaches this manager to the home replica group as
// member id of n. The caller owns store — the member's durable log — and
// re-passes it when the manager is restarted after a crash.
func (pm *PM) EnableHomeGroup(id, n int, store *rsm.Store) {
	pm.host.JoinGroup(vid.GroupHomePMs, pm.proc.PID())
	pm.home = rsm.New(pm.host, rsm.Config{
		Name: "home", Group: vid.GroupHomeRSM, ID: id, N: n, SvcPID: pm.proc.PID(),
	}, &homeSM{pm}, store)
}

// HomeReplica returns the manager's home-group replica (nil when the
// manager is not a group member).
func (pm *PM) HomeReplica() *rsm.Replica { return pm.home }

// homeLeading reports whether this manager currently acts for the home
// group (trivially true for an unreplicated manager).
func (pm *PM) homeLeading() bool { return pm.home == nil || pm.home.IsLeader() }

// QueueHomeSupervise parks a Supervise record for later resubmission
// through the group log. A group member whose agent cannot reach the group
// (mid-election, partitioned) uses this rather than Supervise: a member's
// registry changes only through the log, and the log has no reachable
// leader right now.
func (pm *PM) QueueHomeSupervise(si SessionInfo) {
	pm.homePend = append(pm.homePend, si)
}

// drainHomePend re-proposes parked Supervise records once the group is
// reachable again. Sent group-addressed (not committed directly) so it
// works from any member: whoever leads now commits the record, and apply
// drops it as a duplicate if an earlier attempt got through first, even
// one whose session has finished since (SessionInfo.Started).
func (pm *PM) drainHomePend(ctx *kernel.ProcCtx) {
	for len(pm.homePend) > 0 {
		si := pm.homePend[0]
		m, err := ctx.Send(vid.GroupHomePMs, vid.Message{
			Op: PmSupervise, Seg: EncodeSessionInfo(&si),
		})
		if err != nil || !m.OK() {
			return // still no leader: keep the queue for the next tick
		}
		pm.homePend = pm.homePend[1:]
	}
}

// ------------------------------------------------------------- log model

// hgKind enumerates replicated session-registry mutations.
type hgKind uint8

const (
	hgSupervise hgKind = iota + 1 // Sess: new session, active
	hgRenewed                     // At, HostPM, HostLH, NewLH: lease renewed (follows moves)
	hgBreak                       // At: lease lost, retry at At
	hgRetryAt                     // At: recovery attempt failed, back off
	hgIntent                      // Attempt: about to re-execute (the fence)
	hgRebind                      // NewLH, NewPID, HostPM, HostLH, At: re-executed
	hgDone                        // Code: exited
	hgFailed                      // restarts exhausted
)

// hgCmd is one registry mutation. Timestamps ride in the command — Apply
// must never read the clock, or replicas would diverge.
type hgCmd struct {
	Kind    hgKind
	Orig    vid.LHID
	Sess    *SessionInfo
	At      int64 // sim.Time
	HostPM  uint32
	HostLH  uint32
	NewLH   uint32
	NewPID  uint32
	Code    uint32
	Attempt int
}

func encodeHgCmd(c *hgCmd) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(c); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func decodeHgCmd(b []byte) (*hgCmd, error) {
	var c hgCmd
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&c); err != nil {
		return nil, err
	}
	return &c, nil
}

// EncodeSessionInfo serializes a SessionInfo for PmSupervise.
func EncodeSessionInfo(si *SessionInfo) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(si); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// DecodeSessionInfo parses a PmSupervise segment.
func DecodeSessionInfo(b []byte) (*SessionInfo, error) {
	var si SessionInfo
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&si); err != nil {
		return nil, err
	}
	return &si, nil
}

// commit is the session registry's one mutation path. A manager outside
// the home group applies c in place; a member commits it through the group
// log, and every member applies it there in commit order. The error
// matters: a leader that cannot commit has lost its majority and must not
// act on the mutation's assumption.
func (pm *PM) commit(ctx *kernel.ProcCtx, c *hgCmd) error {
	if pm.home == nil {
		pm.apply(c)
		return nil
	}
	_, err := pm.home.Submit(ctx, encodeHgCmd(c))
	return err
}

// ---------------------------------------------------------- state machine

type homeSM struct{ pm *PM }

func (h *homeSM) Apply(t *sim.Task, cmd []byte) []byte {
	if c, err := decodeHgCmd(cmd); err == nil {
		h.pm.apply(c)
	}
	return nil
}

// apply performs one registry mutation: the state machine's Apply for a
// group member, commit itself for a lone manager. Its guards make every
// kind safe to replay and to arrive late — a finished session stays
// finished.
func (pm *PM) apply(c *hgCmd) {
	if c.Kind == hgSupervise {
		// A record for a live session is a resubmitted duplicate, and so is
		// one for a finished session with the same start time. Any other
		// record for a finished session is a new job on a recycled LHID
		// slot.
		si := c.Sess
		if si == nil {
			return
		}
		if old := pm.sessions[si.LHID]; old != nil && (!old.finished() || old.started == si.Started) {
			return
		}
		pm.sessions[si.LHID] = &session{
			orig: si.LHID, cur: si.LHID, pid: si.PID,
			name: si.Name, args: si.Args, stdout: si.Stdout, minMem: si.MinMem,
			hostPM: si.HostPM, hostLH: si.HostLH, started: si.Started,
			incarnation: 1, maxRestarts: si.MaxRestarts,
			state: sessionActive, lastRenew: sim.Time(c.At),
		}
		return
	}
	s := pm.sessions[c.Orig]
	if s == nil {
		return
	}
	switch c.Kind {
	case hgRenewed:
		if s.finished() {
			return
		}
		s.hostPM = vid.PID(c.HostPM)
		s.hostLH = vid.LHID(c.HostLH)
		if nl := vid.LHID(c.NewLH); nl != 0 && nl != s.cur {
			pm.rebindSession(s, nl)
		}
		s.state = sessionActive
		s.lastRenew = sim.Time(c.At)
	case hgBreak:
		if s.state == sessionActive {
			s.state = sessionBroken
			s.nextRetry = sim.Time(c.At)
		}
	case hgRetryAt:
		if s.state == sessionBroken {
			s.nextRetry = sim.Time(c.At)
		}
	case hgIntent:
		if s.restarts < c.Attempt {
			s.restarts = c.Attempt
		}
	case hgRebind:
		if s.finished() {
			return
		}
		nl := vid.LHID(c.NewLH)
		if nl != s.orig && nl != s.cur {
			pm.alias[nl] = s.orig
		}
		s.cur, s.pid = nl, vid.PID(c.NewPID)
		s.hostPM, s.hostLH = vid.PID(c.HostPM), vid.LHID(c.HostLH)
		s.incarnation++
		s.state = sessionActive
		s.lastRenew = sim.Time(c.At)
	case hgDone:
		if !s.finished() {
			s.state = sessionDone
			s.exitCode = c.Code
		}
	case hgFailed:
		if s.state != sessionDone {
			s.state = sessionFailed
		}
	}
}

// homeSnap is the registry's deterministic snapshot form: sessions and
// aliases as sorted slices (map iteration order must not reach the wire).
type homeSnap struct {
	Sessions []homeSessRec
	Aliases  []homeAliasRec
}

type homeSessRec struct {
	Orig, Cur   vid.LHID
	PID         vid.PID
	Name        string
	Args        []string
	Stdout      vid.PID
	MinMem      uint32
	HostPM      vid.PID
	HostLH      vid.LHID
	Started     int64
	Incarnation int
	Restarts    int
	MaxRestarts int
	State       uint8
	ExitCode    uint32
	LastRenew   int64
	NextRetry   int64
}

type homeAliasRec struct{ From, To vid.LHID }

func (h *homeSM) Snapshot() []byte {
	pm := h.pm
	var snap homeSnap
	ids := make([]vid.LHID, 0, len(pm.sessions))
	for id := range pm.sessions {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		s := pm.sessions[id]
		snap.Sessions = append(snap.Sessions, homeSessRec{
			Orig: s.orig, Cur: s.cur, PID: s.pid, Name: s.name, Args: s.args,
			Stdout: s.stdout, MinMem: s.minMem, HostPM: s.hostPM, HostLH: s.hostLH,
			Started:     int64(s.started),
			Incarnation: s.incarnation, Restarts: s.restarts, MaxRestarts: s.maxRestarts,
			State: uint8(s.state), ExitCode: s.exitCode,
			LastRenew: int64(s.lastRenew), NextRetry: int64(s.nextRetry),
		})
	}
	froms := make([]vid.LHID, 0, len(pm.alias))
	for f := range pm.alias {
		froms = append(froms, f)
	}
	sort.Slice(froms, func(i, j int) bool { return froms[i] < froms[j] })
	for _, f := range froms {
		snap.Aliases = append(snap.Aliases, homeAliasRec{From: f, To: pm.alias[f]})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&snap); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func (h *homeSM) Restore(b []byte) {
	var snap homeSnap
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&snap); err != nil {
		return
	}
	pm := h.pm
	pm.sessions = make(map[vid.LHID]*session, len(snap.Sessions))
	pm.alias = make(map[vid.LHID]vid.LHID, len(snap.Aliases))
	for _, r := range snap.Sessions {
		pm.sessions[r.Orig] = &session{
			orig: r.Orig, cur: r.Cur, pid: r.PID, name: r.Name, args: r.Args,
			stdout: r.Stdout, minMem: r.MinMem, hostPM: r.HostPM, hostLH: r.HostLH,
			started:     sim.Time(r.Started),
			incarnation: r.Incarnation, restarts: r.Restarts, maxRestarts: r.MaxRestarts,
			state: sessionState(r.State), exitCode: r.ExitCode,
			lastRenew: sim.Time(r.LastRenew), nextRetry: sim.Time(r.NextRetry),
		}
	}
	for _, a := range snap.Aliases {
		pm.alias[a.From] = a.To
	}
}
