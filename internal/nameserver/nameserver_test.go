package nameserver

import (
	"strings"
	"testing"
	"time"

	"vsystem/internal/ethernet"
	"vsystem/internal/kernel"
	"vsystem/internal/sim"
	"vsystem/internal/vid"
)

type rig struct {
	eng    *sim.Engine
	ns     *Server
	client *kernel.Host
}

func newRig(seed int64) *rig {
	eng := sim.NewEngine(seed)
	bus := ethernet.NewBus(eng)
	client := kernel.NewHost(eng, bus, 0, "ws0")
	server := kernel.NewHost(eng, bus, 1, "srv")
	return &rig{eng: eng, ns: Start(server, 0, 1, nil), client: client}
}

func (r *rig) call(t *testing.T, msg vid.Message) (vid.Message, error) {
	t.Helper()
	var reply vid.Message
	var err error
	r.client.SpawnServer("caller", 4096, func(ctx *kernel.ProcCtx) {
		reply, err = ctx.Send(vid.GroupNameServers, msg)
	})
	r.eng.RunFor(30 * time.Second)
	return reply, err
}

func TestRegisterLookupUnregister(t *testing.T) {
	r := newRig(1)
	target := vid.NewPID(0x0304, 18)
	if m, err := r.call(t, vid.Message{Op: NsRegister, W: [6]uint32{uint32(target)}, Seg: []byte("txmgr")}); err != nil || !m.OK() {
		t.Fatalf("register: %v %v", m, err)
	}
	m, err := r.call(t, vid.Message{Op: NsLookup, Seg: []byte("txmgr")})
	if err != nil || !m.OK() || vid.PID(m.W[0]) != target {
		t.Fatalf("lookup: %v %v", m, err)
	}
	if m, _ := r.call(t, vid.Message{Op: NsUnregister, Seg: []byte("txmgr")}); !m.OK() {
		t.Fatal("unregister failed")
	}
	if m, err := r.call(t, vid.Message{Op: NsLookup, Seg: []byte("txmgr")}); err == nil && m.OK() {
		t.Fatal("lookup after unregister succeeded")
	}
}

func TestLookupMissing(t *testing.T) {
	r := newRig(2)
	m, err := r.call(t, vid.Message{Op: NsLookup, Seg: []byte("ghost")})
	if err != nil {
		t.Fatal(err)
	}
	if m.Code != vid.CodeNotFound {
		t.Fatalf("code = %d", m.Code)
	}
}

func TestRegisterValidation(t *testing.T) {
	r := newRig(3)
	if m, _ := r.call(t, vid.Message{Op: NsRegister, Seg: []byte("")}); m.OK() {
		t.Fatal("empty registration accepted")
	}
	if m, _ := r.call(t, vid.Message{Op: NsRegister, W: [6]uint32{0}, Seg: []byte("x")}); m.OK() {
		t.Fatal("nil-pid registration accepted")
	}
}

func TestRegisterSelfRetriesUntilServerUp(t *testing.T) {
	eng := sim.NewEngine(4)
	bus := ethernet.NewBus(eng)
	client := kernel.NewHost(eng, bus, 0, "ws0")
	target := vid.NewPID(0x0102, 16)
	// Registrar starts before any name server exists.
	RegisterSelf(client, "late", target)
	eng.RunFor(2 * time.Second)
	// Now the server comes up; the registrar's retries should land.
	server := kernel.NewHost(eng, bus, 1, "srv")
	ns := Start(server, 0, 1, nil)
	eng.RunFor(30 * time.Second)
	if got := ns.Bindings()["late"]; got != target {
		t.Fatalf("binding = %v, want %v", got, target)
	}
}

func TestList(t *testing.T) {
	r := newRig(5)
	r.call(t, vid.Message{Op: NsRegister, W: [6]uint32{uint32(vid.NewPID(1, 16))}, Seg: []byte("bbb")})
	r.call(t, vid.Message{Op: NsRegister, W: [6]uint32{uint32(vid.NewPID(2, 16))}, Seg: []byte("aaa")})
	m, err := r.call(t, vid.Message{Op: NsList})
	if err != nil || !m.OK() {
		t.Fatal(err)
	}
	s := string(m.Seg)
	if !strings.Contains(s, "aaa\t") || !strings.Contains(s, "bbb\t") ||
		strings.Index(s, "aaa") > strings.Index(s, "bbb") {
		t.Fatalf("list = %q", s)
	}
}

func TestLookupHelper(t *testing.T) {
	r := newRig(6)
	target := vid.NewPID(7, 16)
	r.call(t, vid.Message{Op: NsRegister, W: [6]uint32{uint32(target)}, Seg: []byte("svc")})
	var got vid.PID
	var err error
	r.client.SpawnServer("helper", 4096, func(ctx *kernel.ProcCtx) {
		got, err = Lookup(ctx, "svc")
	})
	r.eng.RunFor(30 * time.Second)
	if err != nil || got != target {
		t.Fatalf("Lookup = %v, %v", got, err)
	}
}

// TestLoneCommitMatchesReplicaApply pins the binding table's single
// mutation path: one sequence committed on a lone server and applied as
// encoded log commands by a replica's state machine must leave
// byte-identical snapshots.
func TestLoneCommitMatchesReplicaApply(t *testing.T) {
	steps := []struct {
		op   uint16
		pid  vid.PID
		name string
	}{
		{NsRegister, vid.NewPID(0x0304, 18), "txmgr"},
		{NsRegister, vid.NewPID(0x0305, 18), "display.ws1"},
		{NsRegister, vid.NewPID(0x0306, 18), "txmgr"},
		{NsUnregister, vid.Nil, "display.ws1"},
		{NsUnregister, vid.Nil, "missing"},
	}
	lone := &Server{names: make(map[string]vid.PID)}
	replica := &nsSM{&Server{names: make(map[string]vid.PID)}}
	for i, st := range steps {
		if err := lone.commit(nil, st.op, st.pid, st.name); err != nil {
			t.Fatalf("step %d: lone commit: %v", i, err)
		}
		replica.Apply(nil, encodeNsCmd(st.op, st.pid, st.name))
	}
	if string((&nsSM{lone}).Snapshot()) != string(replica.Snapshot()) {
		t.Fatal("lone server and replica binding tables differ")
	}
	if b := lone.Bindings(); len(b) != 1 || b["txmgr"] != vid.NewPID(0x0306, 18) {
		t.Fatalf("bindings = %v", b)
	}
}
