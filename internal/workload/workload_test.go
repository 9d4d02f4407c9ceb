package workload

import (
	"math"
	"strings"
	"testing"
	"time"

	"vsystem/internal/ethernet"
	"vsystem/internal/image"
	"vsystem/internal/kernel"
	"vsystem/internal/mem"
	"vsystem/internal/sim"
	"vsystem/internal/vid"
	"vsystem/internal/vvm"
)

// start loads a workload image into a fresh logical host and starts it,
// returning the process and its space.
func start(t *testing.T, eng *sim.Engine, h *kernel.Host, img *image.Image) (*kernel.Process, *mem.AddressSpace) {
	t.Helper()
	lh := h.CreateLH(img.Name, false)
	as, err := lh.CreateSpace(img.SpaceSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := as.WriteAt(vvm.CodeBase, img.Code); err != nil {
		t.Fatal(err)
	}
	as.ClearDirty()
	p := lh.NewProcess(as.ID, img.Kind, kernel.Regs{})
	h.Start(p)
	return p, as
}

func host(seed int64) (*sim.Engine, *kernel.Host) {
	eng := sim.NewEngine(seed)
	bus := ethernet.NewBus(eng)
	return eng, kernel.NewHost(eng, bus, 0, "w")
}

func TestWorkloadRunsAndExits(t *testing.T) {
	eng, h := host(1)
	img := Image(Spec{Name: "w", HotKB: 8, HotRateKBps: 50, DurationMs: 500}, 0)
	p, _ := start(t, eng, h, img)
	eng.RunFor(5 * time.Second)
	if !p.Dead() {
		t.Fatal("workload did not exit")
	}
	if p.Regs().W[kernel.RegExitCode] != 0 {
		t.Fatalf("exit = %d", p.Regs().W[kernel.RegExitCode])
	}
}

func TestBadSpecFaults(t *testing.T) {
	eng, h := host(2)
	img := &image.Image{Name: "bad", Kind: BodyKind, Code: []byte{0, 0, 0, 0}, SpaceSize: 64 * 1024}
	p, _ := start(t, eng, h, img)
	eng.RunFor(time.Second)
	if !p.Dead() || p.Regs().W[kernel.RegExitCode] != 0xFF {
		t.Fatal("bad spec did not fault")
	}
}

// measureDirty samples KB dirtied in the interval after warmup.
func measureDirty(t *testing.T, spec Spec, warmup, interval time.Duration, samples int) float64 {
	t.Helper()
	eng, h := host(42)
	spec.DurationMs = 0
	img := Image(spec, 0)
	_, as := start(t, eng, h, img)
	eng.RunFor(warmup)
	sum := 0.0
	for i := 0; i < samples; i++ {
		as.ClearDirty()
		eng.RunFor(interval)
		sum += float64(as.DirtyCount())
	}
	return sum / float64(samples)
}

// TestHotSetModelMatchesClosedForm verifies the dirty-page generator
// against its own design equation dirty(t) ≈ H(1-e^(-rt/H)) + s·t.
func TestHotSetModelMatchesClosedForm(t *testing.T) {
	spec := Spec{Name: "model", HotKB: 50, HotRateKBps: 300, StreamKBps: 10, StreamKB: 128}
	for _, iv := range []time.Duration{200 * time.Millisecond, time.Second} {
		tSec := iv.Seconds()
		want := spec.HotKB*(1-math.Exp(-spec.HotRateKBps*tSec/spec.HotKB)) + spec.StreamKBps*tSec
		got := measureDirty(t, spec, 3*time.Second, iv, 4)
		if got < want*0.75-1 || got > want*1.25+1 {
			t.Fatalf("interval %v: dirty %.1f KB, closed form %.1f KB", iv, got, want)
		}
	}
}

// TestPaperSpecsHitTable41 is the package-level version of experiment E3:
// every calibrated workload must land near its Table 4-1 row.
func TestPaperSpecsHitTable41(t *testing.T) {
	intervals := []time.Duration{200 * time.Millisecond, time.Second, 3 * time.Second}
	for _, spec := range PaperSpecs() {
		paper := Table41[spec.Name]
		for i, iv := range intervals {
			got := measureDirty(t, spec, 3*time.Second, iv, 3)
			p := paper[i]
			lo, hi := p*0.5-1.5, p*2+1.5
			if p >= 8 {
				lo, hi = p*0.6, p*1.4
			}
			if got < lo || got > hi {
				t.Errorf("%s @ %v: %.1f KB, paper %.1f KB", spec.Name, iv, got, p)
			}
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() uint32 {
		eng, h := host(7)
		img := Image(Spec{Name: "d", HotKB: 16, HotRateKBps: 100, StreamKBps: 5, StreamKB: 32, DurationMs: 1000}, 0)
		p, as := start(t, eng, h, img)
		eng.RunFor(10 * time.Second)
		if !p.Dead() {
			t.Fatal("not done")
		}
		// Hash the memory contents.
		var sum uint32
		for _, pn := range as.AllPages() {
			for _, b := range as.Page(pn) {
				sum = sum*31 + uint32(b)
			}
		}
		return sum
	}
	if run() != run() {
		t.Fatal("workload memory not deterministic")
	}
}

func TestPaperSpecLookup(t *testing.T) {
	if _, ok := PaperSpec("tex"); !ok {
		t.Fatal("tex missing")
	}
	if _, ok := PaperSpec("nope"); ok {
		t.Fatal("bogus spec found")
	}
	if len(PaperImages()) != 8 {
		t.Fatalf("PaperImages = %d, want 8", len(PaperImages()))
	}
}

func TestImageSpaceSizeCoversWorkingSet(t *testing.T) {
	for _, s := range PaperSpecs() {
		img := Image(s, 0)
		need := uint32(vvm.CodeBase) + uint32((s.HotKB+s.StreamKB)*1024)
		if img.SpaceSize < need {
			t.Errorf("%s: space %d < working set %d", s.Name, img.SpaceSize, need)
		}
	}
}

// migrateLH moves a logical host between hosts at the kernel API level,
// in one synchronous step: freeze, snapshot, copy every page, install,
// take over the identity, destroy the old copy, unfreeze.
func migrateLH(t *testing.T, from, to *kernel.Host, lh *kernel.LogicalHost) *kernel.LogicalHost {
	t.Helper()
	from.Freeze(lh)
	st := from.SnapshotKernelState(lh)
	nlh := to.CreateLH("incoming", true)
	to.Freeze(nlh)
	for _, src := range lh.Spaces() {
		dst, err := nlh.InstallSpace(src.ID, src.Size())
		if err != nil {
			t.Fatal(err)
		}
		for _, pn := range src.AllPages() {
			dst.InstallPage(pn, src.Page(pn))
		}
	}
	if err := to.InstallKernelState(nlh, st); err != nil {
		t.Fatal(err)
	}
	if err := to.ChangeLHID(nlh, st.LHID); err != nil {
		t.Fatal(err)
	}
	from.DestroyLH(lh)
	to.Unfreeze(nlh, true)
	return nlh
}

// outputAcrossMigration runs a workload that prints to a stdout server on
// a third host. When the server receives the line at, it migrates the
// program to another host before replying, so the program is frozen with
// that output send in flight. It returns every line the server received
// and the migrated program.
func outputAcrossMigration(t *testing.T, spec Spec, at string) ([]string, *kernel.Process) {
	t.Helper()
	eng := sim.NewEngine(3)
	bus := ethernet.NewBus(eng)
	src := kernel.NewHost(eng, bus, 0, "src")
	dst := kernel.NewHost(eng, bus, 1, "dst")
	term := kernel.NewHost(eng, bus, 2, "term")
	img := Image(spec, 0)
	var lines []string
	var lh *kernel.LogicalHost
	var moved *kernel.Process
	out := term.SpawnServer("stdout", 4096, func(ctx *kernel.ProcCtx) {
		for {
			req := ctx.Receive()
			line := req.Msg.SegString()
			lines = append(lines, line)
			if line == at && moved == nil {
				moved = migrateLH(t, src, dst, lh).Procs()[0]
			}
			ctx.Reply(req, vid.Message{Op: req.Msg.Op})
		}
	})
	lh = src.CreateLH(img.Name, true)
	as, err := lh.CreateSpace(img.SpaceSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := as.WriteAt(vvm.CodeBase, img.Code); err != nil {
		t.Fatal(err)
	}
	as.WriteWord(0x04, uint32(out.PID())) // EnvStdoutPID
	src.Start(lh.NewProcess(as.ID, img.Kind, kernel.Regs{}))
	eng.RunFor(30 * time.Second)
	if moved == nil {
		t.Fatalf("line %q never arrived; got %q", at, lines)
	}
	return lines, moved
}

// TestOutputPendingAtFreezePrintedOnce pins the output protocol across a
// migration that freezes the program mid-send. The final line in flight
// must be printed once: the resumed program exits after completing it
// rather than re-entering its loop, whose exit test still holds. A last
// progress line in flight at the same tick count (OutputEveryMs divides
// DurationMs) must still be followed by the final line.
func TestOutputPendingAtFreezePrintedOnce(t *testing.T) {
	spec := Spec{Name: "w", HotKB: 8, HotRateKBps: 50, DurationMs: 200, OutputEveryMs: 100}
	want := []string{"w: tick 10", "w: tick 20", "w: done after 200 ms"}
	for _, at := range []string{"w: done after 200 ms", "w: tick 20"} {
		lines, p := outputAcrossMigration(t, spec, at)
		if strings.Join(lines, "|") != strings.Join(want, "|") {
			t.Errorf("frozen at %q: lines %q, want %q", at, lines, want)
		}
		if !p.Dead() || p.Regs().W[kernel.RegExitCode] != 0 {
			t.Errorf("frozen at %q: migrated program dead=%v exit=%d",
				at, p.Dead(), p.Regs().W[kernel.RegExitCode])
		}
	}
}
