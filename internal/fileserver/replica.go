package fileserver

import (
	"encoding/binary"
	"sort"

	"vsystem/internal/ipc"
	"vsystem/internal/kernel"
	"vsystem/internal/rsm"
	"vsystem/internal/sim"
	"vsystem/internal/vid"
)

// Replicated backend: members started with n ≥ 2 carry the full file/page
// store as a replicated state machine. Mutations (OpWrite, OpRemove,
// OpPageOut, OpPageOutRun) are committed through the rsm log by the leader
// and applied on every replica by the same apply a lone server runs in
// place; reads are served by the leader or by any follower that
// is provably caught up (rsm.Synced), so image loads — and the post-copy
// flush-image fallback — survive the death of any single server machine.
//
// Program images installed at boot are poked directly into every replica's
// store (Put), not logged: they are immutable plate stock a real server
// would reload from disk, and keeping them out of the log keeps snapshots
// from being the only thing that can restock a rejoining replica.

// FsUnicast marks a request addressed to one pinned replica (set in W5).
// A replica that cannot serve answers a unicast request with
// CodeNotLeader + the leader's service PID in W4; a group-addressed
// request (no flag) it drops in silence, leaving the answer to a replica
// that can.
const FsUnicast uint32 = 1

// Replica returns the server's consensus replica (nil when unreplicated).
func (s *Server) Replica() *rsm.Replica { return s.rep }

// LeaderSvc returns the service PID of the current file-server leader as
// this replica knows it (vid.Nil when unknown or unreplicated).
func (s *Server) LeaderSvc() vid.PID {
	if s.rep == nil {
		return vid.Nil
	}
	return s.rep.LeaderSvcPID()
}

// canServe reports whether this replica may answer the request: writes and
// page-ins need the fenced leader (freshness); other reads are also served
// by a caught-up follower.
func (s *Server) canServe(now sim.Time, op uint16) bool {
	if s.rep == nil {
		return true
	}
	switch op {
	case OpWrite, OpRemove, OpPageOut, OpPageOutRun, OpPageIn:
		return s.rep.IsLeader()
	default:
		return s.rep.IsLeader() || s.rep.Synced(now)
	}
}

// deflect disposes of a request this replica may not answer.
func (s *Server) deflect(ctx *kernel.ProcCtx, req *ipc.Req) {
	if req.Msg.W[5]&FsUnicast != 0 {
		ctx.Reply(req, vid.Message{Op: req.Msg.Op, Code: vid.CodeNotLeader,
			W: [6]uint32{0, 0, 0, 0, uint32(s.LeaderSvc())}})
		return
	}
	s.proc.Port().Drop(req)
}

// ----------------------------------------------------------- log commands

// A logged mutation is [op uint16][w0 uint32][seg...] — the wire request's
// essentials, so Apply replays exactly what the leader admitted.
func encodeFsCmd(op uint16, w0 uint32, seg []byte) []byte {
	b := make([]byte, 6+len(seg))
	binary.LittleEndian.PutUint16(b[0:], op)
	binary.LittleEndian.PutUint32(b[2:], w0)
	copy(b[6:], seg)
	return b
}

func decodeFsCmd(cmd []byte) (op uint16, w0 uint32, seg []byte, ok bool) {
	if len(cmd) < 6 {
		return 0, 0, nil, false
	}
	return binary.LittleEndian.Uint16(cmd[0:]),
		binary.LittleEndian.Uint32(cmd[2:]), cmd[6:], true
}

// ---------------------------------------------------------- state machine

type fsSM struct{ s *Server }

func (f *fsSM) Apply(t *sim.Task, cmd []byte) []byte {
	op, w0, seg, ok := decodeFsCmd(cmd)
	if !ok {
		return nil
	}
	return f.s.apply(op, w0, seg)
}

// Snapshot renders the whole store deterministically: sorted names,
// length-prefixed — a map-order-dependent encoding would break the
// byte-identical double-run gate.
func (f *fsSM) Snapshot() []byte {
	var b []byte
	b = appendSortedMap(b, f.s.files)
	b = appendSortedMap(b, f.s.pages)
	return b
}

func (f *fsSM) Restore(snap []byte) {
	files, rest, ok := decodeSnapMap(snap)
	if !ok {
		return
	}
	pages, _, ok := decodeSnapMap(rest)
	if !ok {
		return
	}
	f.s.files, f.s.pages = files, pages
}

func appendSortedMap(b []byte, m map[string][]byte) []byte {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(keys)))
	for _, k := range keys {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(k)))
		b = append(b, k...)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(m[k])))
		b = append(b, m[k]...)
	}
	return b
}

func decodeSnapMap(b []byte) (map[string][]byte, []byte, bool) {
	if len(b) < 4 {
		return nil, nil, false
	}
	n := binary.LittleEndian.Uint32(b)
	b = b[4:]
	m := make(map[string][]byte, n)
	for i := uint32(0); i < n; i++ {
		if len(b) < 4 {
			return nil, nil, false
		}
		kl := binary.LittleEndian.Uint32(b)
		b = b[4:]
		if uint32(len(b)) < kl {
			return nil, nil, false
		}
		k := string(b[:kl])
		b = b[kl:]
		if len(b) < 4 {
			return nil, nil, false
		}
		vl := binary.LittleEndian.Uint32(b)
		b = b[4:]
		if uint32(len(b)) < vl {
			return nil, nil, false
		}
		m[k] = append([]byte(nil), b[:vl]...)
		b = b[vl:]
	}
	return m, b, true
}
