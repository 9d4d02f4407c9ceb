// Package workload provides synthetic programs whose dirty-page behaviour
// is calibrated to Table 4-1 of the paper: the make/cc68 compilation
// pipeline and the TeX formatter.
//
// Each workload follows a hot-set + sequential-stream model: it touches a
// hot working set of H Kbytes at r Kbytes/s (uniformly, with replacement)
// and streams through fresh pages at s Kbytes/s. The expected unique pages
// dirtied in an interval t is then H·(1-e^(-rt/H)) + s·t, which fits the
// paper's three sampling intervals (0.2 s, 1 s, 3 s) for every program.
//
// The workload body runs on the kernel's Body interface with *all* mutable
// state in the register blob and address space, so these programs migrate
// exactly like VVM programs.
package workload

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"time"

	"vsystem/internal/image"
	"vsystem/internal/kernel"
	"vsystem/internal/mem"
	"vsystem/internal/vid"
	"vsystem/internal/vvm"
)

// BodyKind is the registry key for workload programs.
const BodyKind = "workload"

// Spec parameterizes a workload.
type Spec struct {
	// Name is echoed in output lines.
	Name string
	// HotKB is the hot working set size.
	HotKB float64
	// HotRateKBps is the touch rate over the hot set.
	HotRateKBps float64
	// StreamKBps is the fresh-page streaming rate.
	StreamKBps float64
	// StreamKB is the stream window (wraps when exhausted).
	StreamKB float64
	// DurationMs is total CPU time consumed before exiting (0 = forever).
	DurationMs uint32
	// OutputEveryMs emits a progress line to the display at this period
	// (0 = silent).
	OutputEveryMs uint32
}

// tickMs is the CPU slice between page-touch bursts.
const tickMs = 10

func init() {
	kernel.RegisterBody(BodyKind, func() kernel.Body { return &body{} })
}

// Image builds a loadable program image for the workload. The parameter
// blob is carried as the image's code (loaded at vvm.CodeBase); pad sets
// the stored file size (program-load experiments).
func Image(spec Spec, pad uint32) *image.Image {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&spec); err != nil {
		panic(err)
	}
	blob := buf.Bytes()
	code := make([]byte, 4+len(blob))
	binary.LittleEndian.PutUint32(code, uint32(len(blob)))
	copy(code[4:], blob)

	size := uint32(vvm.CodeBase) + uint32(len(code)) +
		uint32(spec.HotKB*1024) + uint32(spec.StreamKB*1024) +
		64*1024 // slack + stack
	size = (size + mem.PageSize - 1) &^ (mem.PageSize - 1)
	return &image.Image{
		Name:      spec.Name,
		Kind:      BodyKind,
		Code:      code,
		SpaceSize: size,
		Pad:       pad,
	}
}

// Register blob layout.
const (
	regPhase     = kernel.RegUser + 0 // 0 init, 1 running
	regRNG       = kernel.RegUser + 1
	regTicks     = kernel.RegUser + 2 // elapsed ticks
	regHotAcc    = kernel.RegUser + 3 // 16.16 fixed-point KB accumulators
	regStreamAcc = kernel.RegUser + 4
	regStreamPos = kernel.RegUser + 5 // KB offset within the stream window
	regPending   = kernel.RegUser + 6 // pendingLine/pendingFinal: output send outstanding
	regInitPos   = kernel.RegUser + 7 // allocation progress during init
)

// regPending values: which output line a send in flight carries.
const (
	pendingLine  = 1 // a progress line; the loop goes on after it
	pendingFinal = 2 // the final line; the program exits after it
)

type body struct{}

// Run implements kernel.Body, resuming cleanly from the registers.
func (b *body) Run(ctx *kernel.ProcCtx) {
	as := ctx.Space()
	r := ctx.Regs()
	spec, err := readSpec(as)
	if err != nil {
		ctx.Exit(0xFF)
	}
	hotBase := uint32(vvm.CodeBase) + 64*1024 // clear of code+blob
	hotPages := pagesOf(spec.HotKB)
	streamBase := hotBase + uint32(hotPages)*mem.PageSize
	streamPages := pagesOf(spec.StreamKB)

	// A migration can interrupt an output transaction; finish it first.
	// The final line is the program's last act: re-entering the loop after
	// it would print it again, because the tick counter has not moved.
	if pending := r.W[regPending]; pending != 0 {
		if ctx.Sending() {
			ctx.AwaitReply()
		}
		r.W[regPending] = 0
		if pending == pendingFinal {
			ctx.Exit(0)
		}
	}

	if r.W[regRNG] == 0 {
		r.W[regRNG] = 0x243F6A88 // pi; any fixed non-zero seed
	}

	// Phase 0: allocate (and dirty) the whole working image, modeling a
	// program that has faulted in its data. Resumable page by page.
	for r.W[regPhase] == 0 {
		pos := r.W[regInitPos]
		total := uint32(hotPages + streamPages)
		if pos >= total {
			r.W[regPhase] = 1
			break
		}
		addr := hotBase + pos*mem.PageSize
		as.WriteWord(addr, 0xA110C8ED)
		r.W[regInitPos] = pos + 1
		if pos%8 == 7 {
			ctx.Steps(1000) // ~1 ms per 8 pages of first-touch cost
		}
	}

	for {
		if spec.DurationMs > 0 && r.W[regTicks]*tickMs >= spec.DurationMs {
			b.output(ctx, r, pendingFinal, fmt.Sprintf("%s: done after %d ms", spec.Name, r.W[regTicks]*tickMs))
			ctx.Exit(0)
		}
		ctx.Compute(tickMs * time.Millisecond)
		r.W[regTicks]++

		// Hot-set touches: HotRateKBps spread over ticks, accumulated in
		// 16.16 fixed point; each whole KB dirties one random hot page.
		if hotPages > 0 {
			r.W[regHotAcc] += uint32(spec.HotRateKBps * tickMs / 1000 * 65536)
			for r.W[regHotAcc] >= 65536 {
				r.W[regHotAcc] -= 65536
				pn := xorshift(&r.W[regRNG]) % uint32(hotPages)
				as.WriteWord(hotBase+pn*mem.PageSize+4*(xorshift(&r.W[regRNG])%64), r.W[regTicks])
			}
		}
		// Sequential stream: fresh pages at StreamKBps, wrapping.
		if streamPages > 0 {
			r.W[regStreamAcc] += uint32(spec.StreamKBps * tickMs / 1000 * 65536)
			for r.W[regStreamAcc] >= 65536 {
				r.W[regStreamAcc] -= 65536
				pn := r.W[regStreamPos] % uint32(streamPages)
				as.WriteWord(streamBase+pn*mem.PageSize, r.W[regTicks])
				r.W[regStreamPos]++
			}
		}

		if spec.OutputEveryMs > 0 && r.W[regTicks]%(spec.OutputEveryMs/tickMs) == 0 {
			b.output(ctx, r, pendingLine, fmt.Sprintf("%s: tick %d", spec.Name, r.W[regTicks]))
		}
	}
}

// output writes a line to the program's stdout server, with the
// migration-safe pending protocol; pending marks which line is in flight.
func (b *body) output(ctx *kernel.ProcCtx, r *kernel.Regs, pending uint32, line string) {
	as := ctx.Space()
	stdout, err := as.ReadWord(0x04) // EnvStdoutPID
	if err != nil || stdout == 0 {
		return
	}
	r.W[regPending] = pending
	ctx.StartSend(vid.PID(stdout), vid.Message{Op: vvm.OpWriteLine, Seg: []byte(line)})
	ctx.AwaitReply()
	r.W[regPending] = 0
}

func readSpec(as *mem.AddressSpace) (*Spec, error) {
	n, err := as.ReadWord(vvm.CodeBase)
	if err != nil || n == 0 || n > 64*1024 {
		return nil, fmt.Errorf("workload: bad spec length")
	}
	blob := make([]byte, n)
	if err := as.ReadAt(vvm.CodeBase+4, blob); err != nil {
		return nil, err
	}
	var spec Spec
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&spec); err != nil {
		return nil, err
	}
	return &spec, nil
}

func pagesOf(kb float64) int {
	return int((kb*1024 + mem.PageSize - 1) / mem.PageSize)
}

func xorshift(s *uint32) uint32 {
	x := *s
	x ^= x << 13
	x ^= x >> 17
	x ^= x << 5
	if x == 0 {
		x = 0x9E3779B9
	}
	*s = x
	return x
}
