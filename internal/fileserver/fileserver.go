// Package fileserver implements the network file server.
//
// The paper's workstations are diskless: program images load from network
// file servers, so "the cost of program loading is independent of whether
// a program is executed locally or remotely" (§4.1) — a keystone of
// transparent remote execution. The server also provides the paging
// backend for the §3.2 virtual-memory migration variant and the keep-state
// -in-global-servers discipline that avoids residual dependencies (§3.3).
package fileserver

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"vsystem/internal/ipc"
	"vsystem/internal/kernel"
	"vsystem/internal/mem"
	"vsystem/internal/params"
	"vsystem/internal/rsm"
	"vsystem/internal/vid"
)

// Operations.
const (
	// OpStat: Seg=name → W0=size (bytes).
	OpStat uint16 = 0x50 + iota
	// OpRead: Seg=name, W0=offset, W1=length (≤ SegMax) → Seg=data.
	OpRead
	// OpWrite: Seg=name bytes NUL data bytes, W0=offset → W0=new size.
	OpWrite
	// OpRemove: Seg=name.
	OpRemove
	// OpPageOut: paging backend — Seg=key NUL data.
	OpPageOut
	// OpPageIn: Seg=key → Seg=data.
	OpPageIn
	// OpList: → Seg=NUL-separated names (tools).
	OpList
	// OpPageOutRun: paging backend bulk write — Seg=prefix NUL page-run
	// (kernel.EncodePageRun format); each page is stored under
	// "prefix/space/pageno".
	OpPageOutRun
)

// Server is a network file server process with an in-memory store.
type Server struct {
	proc  *kernel.Process
	files map[string][]byte
	pages map[string][]byte
	rep   *rsm.Replica // nil when the server runs unreplicated
}

// Start spawns file-server member id of n on a host (typically a dedicated
// server machine) and joins the client-facing file-server group. With
// n ≥ 2 the member is a consensus replica that also joins the replication
// group; a lone server (n < 2) applies its mutations in place. The caller
// owns store — a replica's "disk" — and re-passes it on restart; a lone
// server ignores it.
func Start(h *kernel.Host, id, n int, store *rsm.Store) *Server {
	s := &Server{files: make(map[string][]byte), pages: make(map[string][]byte)}
	s.proc = h.SpawnServer("fileserver", 128*1024, s.run)
	h.JoinGroup(vid.GroupFileServers, s.proc.PID())
	if n >= 2 {
		s.rep = rsm.New(h, rsm.Config{
			Name: "fs", Group: vid.GroupFSRSM, ID: id, N: n, SvcPID: s.proc.PID(),
		}, &fsSM{s}, store)
	}
	return s
}

// PID returns the file server's process identifier.
func (s *Server) PID() vid.PID { return s.proc.PID() }

// Put stores a file directly (cluster setup; no simulated cost).
func (s *Server) Put(name string, data []byte) {
	s.files[name] = append([]byte(nil), data...)
}

// Get reads a file directly (tests; no simulated cost).
func (s *Server) Get(name string) ([]byte, bool) {
	b, ok := s.files[name]
	return b, ok
}

// blockCost charges the per-block file-service cost for n bytes.
func blockCost(n int) time.Duration {
	blocks := (n + 1023) / 1024
	if blocks < 1 {
		blocks = 1
	}
	return time.Duration(blocks) * params.FileServerBlockCPU
}

func (s *Server) run(ctx *kernel.ProcCtx) {
	for {
		req := ctx.Receive()
		m := req.Msg
		// Replicated servers answer only when their copy is authoritative:
		// writes need the fenced leader, reads a leader or caught-up
		// follower. Everyone else deflects (redirect or group silence).
		if !s.canServe(ctx.Now(), m.Op) {
			s.deflect(ctx, req)
			continue
		}
		switch m.Op {
		case OpStat:
			data, ok := s.files[m.SegString()]
			if !ok {
				ctx.Reply(req, vid.ErrMsg(vid.CodeNotFound))
				continue
			}
			ctx.Compute(params.FileServerBlockCPU)
			// W5 identifies the answering server, so clients that found it
			// through the file-server group can address it directly
			// afterwards; W4 carries the write leader as this replica knows
			// it, so read-pinned clients learn where mutations go.
			ctx.Reply(req, vid.Message{Op: m.Op, W: [6]uint32{
				uint32(len(data)), 0, 0, 0, uint32(s.LeaderSvc()), uint32(s.proc.PID()),
			}})

		case OpRead:
			data, ok := s.files[m.SegString()]
			if !ok {
				ctx.Reply(req, vid.ErrMsg(vid.CodeNotFound))
				continue
			}
			off, n := int(m.W[0]), int(m.W[1])
			if n > vid.SegMax {
				n = vid.SegMax
			}
			if off > len(data) {
				off = len(data)
			}
			if off+n > len(data) {
				n = len(data) - off
			}
			ctx.Compute(blockCost(n))
			ctx.Reply(req, vid.Message{Op: m.Op, W: [6]uint32{uint32(n)}, Seg: data[off : off+n]})

		case OpWrite:
			_, payload, ok := splitNameData(m.Seg)
			if !ok {
				ctx.Reply(req, vid.ErrMsg(vid.CodeBadRequest))
				continue
			}
			res, err := s.commit(ctx, OpWrite, m.W[0], m.Seg)
			if err != nil {
				s.replyCommitErr(ctx, req, err)
				continue
			}
			if len(res) < 4 {
				ctx.Reply(req, vid.ErrMsg(vid.CodeBadRequest))
				continue
			}
			ctx.Compute(blockCost(len(payload)))
			ctx.Reply(req, vid.Message{Op: m.Op, W: [6]uint32{binary.LittleEndian.Uint32(res)}})

		case OpRemove:
			if _, err := s.commit(ctx, OpRemove, 0, m.Seg); err != nil {
				s.replyCommitErr(ctx, req, err)
				continue
			}
			ctx.Reply(req, vid.Message{Op: m.Op})

		case OpPageOut:
			_, payload, ok := splitNameData(m.Seg)
			if !ok {
				ctx.Reply(req, vid.ErrMsg(vid.CodeBadRequest))
				continue
			}
			if _, err := s.commit(ctx, OpPageOut, 0, m.Seg); err != nil {
				s.replyCommitErr(ctx, req, err)
				continue
			}
			ctx.Compute(blockCost(len(payload)))
			ctx.Reply(req, vid.Message{Op: m.Op})

		case OpPageOutRun:
			prefix, blob, ok := splitNameData(m.Seg)
			if !ok {
				ctx.Reply(req, vid.ErrMsg(vid.CodeBadRequest))
				continue
			}
			spaceID, pages, data, err := kernel.DecodePageRun(blob)
			if err != nil {
				ctx.Reply(req, vid.ErrMsg(vid.CodeBadRequest))
				continue
			}
			if err := s.commitRun(ctx, prefix, spaceID, pages, data); err != nil {
				s.replyCommitErr(ctx, req, err)
				continue
			}
			n := 0
			for _, d := range data {
				n += len(d)
			}
			ctx.Compute(blockCost(n))
			ctx.Reply(req, vid.Message{Op: m.Op})

		case OpPageIn:
			data, ok := s.pages[m.SegString()]
			if !ok {
				ctx.Reply(req, vid.ErrMsg(vid.CodeNotFound))
				continue
			}
			ctx.Compute(blockCost(len(data)))
			ctx.Reply(req, vid.Message{Op: m.Op, Seg: data})

		case OpList:
			names := make([]string, 0, len(s.files))
			for name := range s.files {
				names = append(names, name)
			}
			sort.Strings(names)
			var seg []byte
			for _, name := range names {
				seg = append(seg, name...)
				seg = append(seg, 0)
			}
			ctx.Reply(req, vid.Message{Op: m.Op, Seg: seg})

		default:
			ctx.Reply(req, vid.ErrMsg(vid.CodeBadRequest))
		}
	}
}

// commit is the store's one mutation path. A lone server applies the
// mutation in place; a replica commits it through the log, and every
// member applies it there in commit order. Either way apply produces the
// result, so the two modes cannot drift apart.
func (s *Server) commit(ctx *kernel.ProcCtx, op uint16, w0 uint32, seg []byte) ([]byte, error) {
	if s.rep == nil {
		return s.apply(op, w0, seg), nil
	}
	return s.rep.Submit(ctx, encodeFsCmd(op, w0, seg))
}

// commitRun commits a page-out run as ordered sub-runs small enough for one
// log entry (the raw 30-page run exceeds RsmMaxCmd). Page stores are keyed,
// so a replayed sub-run is idempotent.
func (s *Server) commitRun(ctx *kernel.ProcCtx, prefix string, spaceID uint32,
	pages []mem.PageNo, data [][]byte) error {

	perCmd := (params.RsmMaxCmd - len(prefix) - 64) / (mem.PageSize + 8)
	if perCmd < 1 {
		perCmd = 1
	}
	for off := 0; off < len(pages); off += perCmd {
		end := off + perCmd
		if end > len(pages) {
			end = len(pages)
		}
		seg := append([]byte(prefix), 0)
		seg = append(seg, kernel.EncodePageRun(spaceID, pages[off:end], data[off:end])...)
		if _, err := s.commit(ctx, OpPageOutRun, 0, seg); err != nil {
			return err
		}
	}
	return nil
}

// apply performs one mutation on the store: the state machine's Apply for
// a replica, commit itself for a lone server. OpWrite returns the file's
// new size as a little-endian uint32.
func (s *Server) apply(op uint16, w0 uint32, seg []byte) []byte {
	switch op {
	case OpWrite:
		name, payload, ok := splitNameData(seg)
		if !ok {
			return nil
		}
		f := s.files[name]
		if need := int(w0) + len(payload); need > len(f) {
			f = append(f, make([]byte, need-len(f))...)
		}
		copy(f[w0:], payload)
		s.files[name] = f
		return binary.LittleEndian.AppendUint32(nil, uint32(len(f)))
	case OpRemove:
		delete(s.files, string(seg))
	case OpPageOut:
		if key, payload, ok := splitNameData(seg); ok {
			s.pages[key] = append([]byte(nil), payload...)
		}
	case OpPageOutRun:
		prefix, blob, ok := splitNameData(seg)
		if !ok {
			return nil
		}
		spaceID, pages, data, err := kernel.DecodePageRun(blob)
		if err != nil {
			return nil
		}
		for i, pn := range pages {
			key := fmt.Sprintf("%s/%d/%d", prefix, spaceID, pn)
			s.pages[key] = append([]byte(nil), data[i]...)
		}
	}
	return nil
}

// replyCommitErr maps a failed log commit to a wire reply: lost leadership
// deflects (the client retries against the group), anything else times out.
func (s *Server) replyCommitErr(ctx *kernel.ProcCtx, req *ipc.Req, err error) {
	if err == rsm.ErrNotLeader {
		s.deflect(ctx, req)
		return
	}
	ctx.Reply(req, vid.ErrMsg(vid.CodeTimeout))
}

// splitNameData separates "name\x00data" segments.
func splitNameData(seg []byte) (string, []byte, bool) {
	for i, b := range seg {
		if b == 0 {
			return string(seg[:i]), seg[i+1:], true
		}
	}
	return "", nil, false
}
