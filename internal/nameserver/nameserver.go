// Package nameserver implements the global symbolic-name service.
//
// §6 of the paper states the residual-dependency principle: "name bindings
// in V are stored in a cache in the program's address space as well as in
// global servers". Resident servers register their PIDs here at boot; the
// program manager seeds every new program's environment-block name cache
// from the bindings it knows; cache misses fall back to a query of the
// well-known name-server group. Because the bindings live in the program's
// own address space, they migrate with it — no lookup state is left on the
// previous host.
package nameserver

import (
	"sort"
	"strings"
	"time"

	"vsystem/internal/kernel"
	"vsystem/internal/params"
	"vsystem/internal/rsm"
	"vsystem/internal/vid"
)

// Operations (0x90 region).
const (
	// NsRegister: Seg=name, W0=pid.
	NsRegister uint16 = 0x90 + iota
	// NsLookup: Seg=name → W0=pid.
	NsLookup
	// NsUnregister: Seg=name.
	NsUnregister
	// NsList: → Seg = name NUL pid-hex NUL ... (tools).
	NsList
)

// Server is a global name server.
type Server struct {
	proc  *kernel.Process
	names map[string]vid.PID
	rep   *rsm.Replica // nil when the server runs unreplicated
}

// Start spawns name-server member id of n on a host and joins the
// name-server group. With n ≥ 2 the member is a consensus replica; a lone
// server (n < 2) applies registrations in place. The caller owns store and
// re-passes it on restart; a lone server ignores it.
func Start(h *kernel.Host, id, n int, store *rsm.Store) *Server {
	s := &Server{names: make(map[string]vid.PID)}
	s.proc = h.SpawnServer("nameserver", 64*1024, s.run)
	h.JoinGroup(vid.GroupNameServers, s.proc.PID())
	if n >= 2 {
		s.rep = rsm.New(h, rsm.Config{
			Name: "ns", Group: vid.GroupNSRSM, ID: id, N: n, SvcPID: s.proc.PID(),
		}, &nsSM{s}, store)
	}
	return s
}

// PID returns the name server's process identifier.
func (s *Server) PID() vid.PID { return s.proc.PID() }

// Bindings returns a copy of the current table (tools/tests).
func (s *Server) Bindings() map[string]vid.PID {
	out := make(map[string]vid.PID, len(s.names))
	for k, v := range s.names {
		out[k] = v
	}
	return out
}

func (s *Server) run(ctx *kernel.ProcCtx) {
	for {
		req := ctx.Receive()
		m := req.Msg
		// Replicated name servers answer only from an authoritative copy;
		// name-service requests are always group-addressed, so a replica
		// that cannot serve simply stays silent.
		if !s.canServe(ctx.Now(), m.Op) {
			s.proc.Port().Drop(req)
			continue
		}
		ctx.Compute(params.KernelOpCPU)
		switch m.Op {
		case NsRegister:
			name := m.SegString()
			if name == "" || m.W[0] == 0 {
				ctx.Reply(req, vid.ErrMsg(vid.CodeBadRequest))
				continue
			}
			if s.commit(ctx, m.Op, vid.PID(m.W[0]), name) != nil {
				ctx.Reply(req, vid.ErrMsg(vid.CodeTimeout))
				continue
			}
			ctx.Reply(req, vid.Message{Op: m.Op})
		case NsLookup:
			pid, ok := s.names[m.SegString()]
			if !ok {
				ctx.Reply(req, vid.ErrMsg(vid.CodeNotFound))
				continue
			}
			ctx.Reply(req, vid.Message{Op: m.Op, W: [6]uint32{uint32(pid)}})
		case NsUnregister:
			if s.commit(ctx, m.Op, vid.Nil, m.SegString()) != nil {
				ctx.Reply(req, vid.ErrMsg(vid.CodeTimeout))
				continue
			}
			ctx.Reply(req, vid.Message{Op: m.Op})
		case NsList:
			names := make([]string, 0, len(s.names))
			for n := range s.names {
				names = append(names, n)
			}
			sort.Strings(names)
			var sb strings.Builder
			for _, n := range names {
				sb.WriteString(n)
				sb.WriteByte('\t')
				sb.WriteString(s.names[n].String())
				sb.WriteByte('\n')
			}
			ctx.Reply(req, vid.Message{Op: m.Op, Seg: []byte(sb.String())})
		default:
			ctx.Reply(req, vid.ErrMsg(vid.CodeBadRequest))
		}
	}
}

// commit is the binding table's one mutation path. A lone server applies
// the change in place; a replica commits it through the log, and every
// member applies it there in commit order.
func (s *Server) commit(ctx *kernel.ProcCtx, op uint16, pid vid.PID, name string) error {
	if s.rep == nil {
		s.apply(op, pid, name)
		return nil
	}
	_, err := s.rep.Submit(ctx, encodeNsCmd(op, pid, name))
	return err
}

// apply performs one binding change: the state machine's Apply for a
// replica, commit itself for a lone server.
func (s *Server) apply(op uint16, pid vid.PID, name string) {
	switch op {
	case NsRegister:
		s.names[name] = pid
	case NsUnregister:
		delete(s.names, name)
	}
}

// RegisterSelf spawns a registrar process on h that announces a binding to
// the name-server group, retrying until a name server accepts it. Resident
// servers call this at boot.
func RegisterSelf(h *kernel.Host, name string, pid vid.PID) {
	RegisterSelfAt(h, name, pid, 0)
}

// RegisterSelfAt is RegisterSelf with an initial delay. Large clusters
// stagger their hosts' boot registrations: several hundred simultaneous
// group sends against the one name server generate a retransmission herd
// whose packet-processing load alone exceeds the server host's capacity,
// so the herd never drains.
func RegisterSelfAt(h *kernel.Host, name string, pid vid.PID, delay time.Duration) {
	h.SpawnServer("register:"+name, 4096, func(ctx *kernel.ProcCtx) {
		if delay > 0 {
			ctx.Sleep(delay)
		}
		for attempt := 0; attempt < 20; attempt++ {
			m, err := ctx.Send(vid.GroupNameServers, vid.Message{
				Op:  NsRegister,
				W:   [6]uint32{uint32(pid)},
				Seg: []byte(name),
			})
			if err == nil && m.OK() {
				return
			}
			ctx.Sleep(500 * time.Millisecond)
		}
	})
}

// Lookup resolves a name through the name-server group with one bounded
// retry: the first query can land while the server that held the binding
// is dead or a replica group is mid-election, and a single follow-up send
// reaches whichever replica has (re)gained authority. Not-found is a
// definitive answer and is not retried.
func Lookup(ctx *kernel.ProcCtx, name string) (vid.PID, error) {
	q := vid.Message{Op: NsLookup, Seg: []byte(name)}
	m, err := ctx.Send(vid.GroupNameServers, q)
	if err != nil || (!m.OK() && m.Code != vid.CodeNotFound) {
		m, err = ctx.Send(vid.GroupNameServers, q)
	}
	if err != nil {
		return vid.Nil, err
	}
	if !m.OK() {
		return vid.Nil, m.Err()
	}
	return vid.PID(m.W[0]), nil
}
