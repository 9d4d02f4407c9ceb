package fileserver

import (
	"bytes"
	"testing"
	"time"

	"vsystem/internal/ethernet"
	"vsystem/internal/kernel"
	"vsystem/internal/mem"
	"vsystem/internal/sim"
	"vsystem/internal/vid"
)

type rig struct {
	eng    *sim.Engine
	fs     *Server
	client *kernel.Host
}

func newRig(seed int64) *rig {
	eng := sim.NewEngine(seed)
	bus := ethernet.NewBus(eng)
	client := kernel.NewHost(eng, bus, 0, "ws0")
	server := kernel.NewHost(eng, bus, 1, "fserv")
	return &rig{eng: eng, fs: Start(server, 0, 1, nil), client: client}
}

// call runs one request from a client process and returns the reply.
func (r *rig) call(t *testing.T, msg vid.Message) vid.Message {
	t.Helper()
	var reply vid.Message
	var err error
	r.client.SpawnServer("caller", 4096, func(ctx *kernel.ProcCtx) {
		reply, err = ctx.Send(r.fs.PID(), msg)
	})
	r.eng.RunFor(time.Minute)
	if err != nil {
		t.Fatalf("call: %v", err)
	}
	return reply
}

func TestStatAndRead(t *testing.T) {
	r := newRig(1)
	data := bytes.Repeat([]byte("v-system "), 1000)
	r.fs.Put("prog", data)

	st := r.call(t, vid.Message{Op: OpStat, Seg: []byte("prog")})
	if !st.OK() || int(st.W[0]) != len(data) {
		t.Fatalf("stat = %v", st)
	}
	if vid.PID(st.W[5]) != r.fs.PID() {
		t.Fatal("stat reply does not identify the server")
	}

	rd := r.call(t, vid.Message{Op: OpRead, W: [6]uint32{100, 500}, Seg: []byte("prog")})
	if !rd.OK() || !bytes.Equal(rd.Seg, data[100:600]) {
		t.Fatalf("read mismatch (%d bytes)", len(rd.Seg))
	}

	// Read past EOF truncates.
	rd = r.call(t, vid.Message{Op: OpRead, W: [6]uint32{uint32(len(data)) - 10, 500}, Seg: []byte("prog")})
	if !rd.OK() || len(rd.Seg) != 10 {
		t.Fatalf("eof read = %d bytes", len(rd.Seg))
	}
}

func TestStatMissing(t *testing.T) {
	r := newRig(2)
	st := r.call(t, vid.Message{Op: OpStat, Seg: []byte("nope")})
	if st.OK() {
		t.Fatal("stat of missing file succeeded")
	}
}

func TestWriteExtendsAndOverwrites(t *testing.T) {
	r := newRig(3)
	seg := append([]byte("f\x00"), []byte("hello")...)
	w := r.call(t, vid.Message{Op: OpWrite, Seg: seg})
	if !w.OK() || w.W[0] != 5 {
		t.Fatalf("write = %v", w)
	}
	seg = append([]byte("f\x00"), []byte("XY")...)
	w = r.call(t, vid.Message{Op: OpWrite, W: [6]uint32{4}, Seg: seg})
	if !w.OK() || w.W[0] != 6 {
		t.Fatalf("extend = %v", w)
	}
	got, _ := r.fs.Get("f")
	if string(got) != "hellXY" {
		t.Fatalf("contents = %q", got)
	}
}

func TestRemove(t *testing.T) {
	r := newRig(4)
	r.fs.Put("f", []byte("x"))
	r.call(t, vid.Message{Op: OpRemove, Seg: []byte("f")})
	if _, ok := r.fs.Get("f"); ok {
		t.Fatal("file survived remove")
	}
}

func TestPagingStore(t *testing.T) {
	r := newRig(5)
	page := bytes.Repeat([]byte{7}, 1024)
	out := append([]byte("pg/1/2\x00"), page...)
	if rep := r.call(t, vid.Message{Op: OpPageOut, Seg: out}); !rep.OK() {
		t.Fatalf("pageout = %v", rep)
	}
	in := r.call(t, vid.Message{Op: OpPageIn, Seg: []byte("pg/1/2")})
	if !in.OK() || !bytes.Equal(in.Seg, page) {
		t.Fatal("pagein mismatch")
	}
	miss := r.call(t, vid.Message{Op: OpPageIn, Seg: []byte("pg/9/9")})
	if miss.OK() {
		t.Fatal("pagein of missing page succeeded")
	}
}

func TestPageOutRun(t *testing.T) {
	r := newRig(6)
	pages := []mem.PageNo{4, 9}
	data := [][]byte{bytes.Repeat([]byte{1}, 1024), bytes.Repeat([]byte{2}, 1024)}
	seg := append([]byte("pfx\x00"), kernel.EncodePageRun(3, pages, data)...)
	if rep := r.call(t, vid.Message{Op: OpPageOutRun, Seg: seg}); !rep.OK() {
		t.Fatalf("pageout-run = %v", rep)
	}
	in := r.call(t, vid.Message{Op: OpPageIn, Seg: []byte("pfx/3/9")})
	if !in.OK() || in.Seg[0] != 2 {
		t.Fatal("run page not stored under per-page key")
	}
}

func TestList(t *testing.T) {
	r := newRig(7)
	r.fs.Put("b", nil)
	r.fs.Put("a", nil)
	l := r.call(t, vid.Message{Op: OpList})
	if string(l.Seg) != "a\x00b\x00" {
		t.Fatalf("list = %q", l.Seg)
	}
}

func TestBadRequests(t *testing.T) {
	r := newRig(8)
	if rep := r.call(t, vid.Message{Op: 0x6F}); rep.OK() {
		t.Fatal("unknown op succeeded")
	}
	if rep := r.call(t, vid.Message{Op: OpWrite, Seg: []byte("no-nul")}); rep.OK() {
		t.Fatal("malformed write succeeded")
	}
}

// TestLoneCommitMatchesReplicaApply pins the store's single mutation path:
// one mutation sequence committed on a lone server and applied as encoded
// log commands by a replica's state machine must leave byte-identical
// snapshots and return identical results.
func TestLoneCommitMatchesReplicaApply(t *testing.T) {
	page := bytes.Repeat([]byte{0xA5}, mem.PageSize)
	run := append([]byte("swap\x00"), kernel.EncodePageRun(7,
		[]mem.PageNo{3, 4}, [][]byte{page, make([]byte, mem.PageSize)})...)
	steps := []struct {
		op  uint16
		w0  uint32
		seg []byte
	}{
		{OpWrite, 0, []byte("a\x00hello")},
		{OpWrite, 8, []byte("a\x00xy")}, // extends the file with a zero gap
		{OpWrite, 0, []byte("b\x00doomed")},
		{OpRemove, 0, []byte("b")},
		{OpRemove, 0, []byte("missing")},
		{OpPageOut, 0, []byte("p/1/0\x00page")},
		{OpPageOutRun, 0, run},
		{OpWrite, 0, []byte("no separator")},
	}
	lone := &Server{files: make(map[string][]byte), pages: make(map[string][]byte)}
	replica := &fsSM{&Server{files: make(map[string][]byte), pages: make(map[string][]byte)}}
	for i, st := range steps {
		got, err := lone.commit(nil, st.op, st.w0, st.seg)
		if err != nil {
			t.Fatalf("step %d: lone commit: %v", i, err)
		}
		if want := replica.Apply(nil, encodeFsCmd(st.op, st.w0, st.seg)); !bytes.Equal(got, want) {
			t.Fatalf("step %d: lone result %x, replica result %x", i, got, want)
		}
	}
	if !bytes.Equal((&fsSM{lone}).Snapshot(), replica.Snapshot()) {
		t.Fatal("lone server and replica stores differ")
	}
	if f := lone.files["a"]; !bytes.Equal(f, []byte("hello\x00\x00\x00xy")) || len(lone.pages) != 3 {
		t.Fatalf("unexpected store: a=%q, %d pages", f, len(lone.pages))
	}
}
