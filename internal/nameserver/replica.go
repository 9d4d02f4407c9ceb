package nameserver

import (
	"encoding/binary"
	"sort"

	"vsystem/internal/rsm"
	"vsystem/internal/sim"
	"vsystem/internal/vid"
)

// Replicated name service: members started with n ≥ 2 commit NsRegister
// and NsUnregister through a consensus log and answer NsLookup/NsList from
// the leader or any caught-up follower, so the cluster's boot bindings
// survive the death of the server machine that happened to hold them.
// Clients keep the group-send protocol unchanged — a replica that cannot
// answer stays silent and the one that can replies first.

// Replica returns the server's consensus replica (nil when unreplicated).
func (s *Server) Replica() *rsm.Replica { return s.rep }

// canServe reports whether this replica may answer: registrations need the
// fenced leader, lookups a leader or caught-up follower.
func (s *Server) canServe(now sim.Time, op uint16) bool {
	if s.rep == nil {
		return true
	}
	switch op {
	case NsRegister, NsUnregister:
		return s.rep.IsLeader()
	default:
		return s.rep.IsLeader() || s.rep.Synced(now)
	}
}

// Name-service log command: [op uint16][pid uint32][name...].
func encodeNsCmd(op uint16, pid vid.PID, name string) []byte {
	b := make([]byte, 6+len(name))
	binary.LittleEndian.PutUint16(b[0:], op)
	binary.LittleEndian.PutUint32(b[2:], uint32(pid))
	copy(b[6:], name)
	return b
}

type nsSM struct{ s *Server }

func (f *nsSM) Apply(t *sim.Task, cmd []byte) []byte {
	if len(cmd) < 6 {
		return nil
	}
	f.s.apply(binary.LittleEndian.Uint16(cmd[0:]),
		vid.PID(binary.LittleEndian.Uint32(cmd[2:])), string(cmd[6:]))
	return nil
}

// Snapshot renders the binding table deterministically (sorted names).
func (f *nsSM) Snapshot() []byte {
	names := make([]string, 0, len(f.s.names))
	for n := range f.s.names {
		names = append(names, n)
	}
	sort.Strings(names)
	var b []byte
	b = binary.LittleEndian.AppendUint32(b, uint32(len(names)))
	for _, n := range names {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(n)))
		b = append(b, n...)
		b = binary.LittleEndian.AppendUint32(b, uint32(f.s.names[n]))
	}
	return b
}

func (f *nsSM) Restore(snap []byte) {
	if len(snap) < 4 {
		return
	}
	n := binary.LittleEndian.Uint32(snap)
	b := snap[4:]
	m := make(map[string]vid.PID, n)
	for i := uint32(0); i < n; i++ {
		if len(b) < 4 {
			return
		}
		nl := binary.LittleEndian.Uint32(b)
		b = b[4:]
		if uint32(len(b)) < nl+4 {
			return
		}
		name := string(b[:nl])
		b = b[nl:]
		m[name] = vid.PID(binary.LittleEndian.Uint32(b))
		b = b[4:]
	}
	f.s.names = m
}
