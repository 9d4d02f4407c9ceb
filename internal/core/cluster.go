// Package core implements the paper's contribution on top of the
// substrates: transparent remote execution (`prog args @ host`, `prog args
// @ *`), decentralized host selection through the program-manager group,
// and preemptable migration of logical hosts with pre-copying — plus the
// comparator policies used by the evaluation (stop-and-copy, the §3.2
// flush-to-file-server variant, and Demos/MP-style forwarding addresses).
package core

import (
	"fmt"
	"math/rand"
	"time"

	"vsystem/internal/display"
	"vsystem/internal/ethernet"
	"vsystem/internal/fault"
	"vsystem/internal/fileserver"
	"vsystem/internal/image"
	"vsystem/internal/kernel"
	"vsystem/internal/nameserver"
	"vsystem/internal/params"
	"vsystem/internal/progmgr"
	"vsystem/internal/rsm"
	"vsystem/internal/sched"
	"vsystem/internal/sim"
	"vsystem/internal/trace"
	"vsystem/internal/vid"
)

// Options configures a simulated cluster.
type Options struct {
	// Workstations is the number of diskless workstations (the paper's
	// cluster had ~25). Default 4.
	Workstations int
	// Seed drives all randomness (loss, jitter). Default 1.
	Seed int64
	// LossRate is the per-frame Ethernet loss probability. Default 0.
	LossRate float64
	// Policy selects the migration policy for all program managers.
	// Default PolicyPrecopy.
	Policy Policy
	// Select is the host-selection policy used by every workstation's
	// scheduling selector (`@ *` execution and migration destinations).
	// Default sched.FirstResponse — the paper's baseline. Load-aware
	// policies additionally turn on the periodic load beacon.
	Select sched.Policy
	// ReplicateFS runs that many server machines, each carrying a
	// consensus-backed file-server and name-server replica, so the storage
	// and naming services survive any minority of server deaths. 0 or 1
	// keeps the single unreplicated server machine (the default).
	ReplicateFS int
	// ReplicateHome backs each workstation's home services (session
	// supervision) with a consensus group of that many program managers.
	// 0 or 1 keeps the single home PM (the default).
	ReplicateHome int
}

// Cluster is a simulated V installation: workstations plus a server
// machine running the network file server.
type Cluster struct {
	Sim   *sim.Engine
	Bus   *ethernet.Bus
	Nodes []*Node
	// FSHost is the dedicated server machine.
	FSHost *kernel.Host
	FS     *fileserver.Server
	// NS is the global name server (resident on the server machine).
	NS *nameserver.Server
	// FSHosts/FSReps/NSReps are the replicated server machines and the
	// file/name-server replicas riding them when Options.ReplicateFS ≥ 2
	// (FSHosts[0] == FSHost, FSReps[0] == FS, NSReps[0] == NS). The rsm
	// stores are the replicas' "disks" — they survive crash/restart.
	FSHosts  []*kernel.Host
	FSReps   []*fileserver.Server
	NSReps   []*nameserver.Server
	fsStores []*rsm.Store
	nsStores []*rsm.Store
	// homeStores are the home-group members' durable logs (workstation i
	// carries home replica i for i < len(homeStores)); non-empty exactly
	// when Options.ReplicateHome enabled the home PM group.
	homeStores []*rsm.Store
	// Trace is the cluster-wide event bus and metrics registry; every
	// layer (ethernet, ipc, kernel, migration) publishes into it.
	Trace *trace.Bus
	// Fault injects crashes, restarts, partitions, and loss/corruption
	// bursts into the cluster; it is never nil.
	Fault *fault.Injector

	policy Policy
	images []installedImage // install order preserved for FS restart
	agents int
	pagers map[vid.LHID]*PagerStats
}

type installedImage struct {
	name string
	data []byte
}

// Node is one workstation: kernel, program manager, display server.
type Node struct {
	Host    *kernel.Host
	PM      *progmgr.PM
	Display *display.Server
	// Selector runs host selection for this workstation: the configured
	// policy over the node's cached cluster-load view. It survives
	// crash/restart cycles (the cache is invalidated through fault
	// events, not destroyed).
	Selector *sched.Selector
	cluster  *Cluster
	pagerSeq uint16
}

// Name returns the workstation's host name.
func (n *Node) Name() string { return n.Host.Name }

// NewCluster boots a cluster.
func NewCluster(opt Options) *Cluster {
	if opt.Workstations == 0 {
		opt.Workstations = 4
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	eng := sim.NewEngine(opt.Seed)
	bus := ethernet.NewBus(eng)
	if opt.LossRate > 0 {
		bus.SetLoss(ethernet.RandomLoss(eng, opt.LossRate))
	}
	tb := trace.NewBus()
	bus.SetTraceBus(tb)
	c := &Cluster{Sim: eng, Bus: bus, Trace: tb, policy: opt.Policy}
	c.Fault = fault.New(eng, bus, tb)
	tb.RegisterSource("net", func() []trace.Metric {
		bs := bus.Stats()
		return []trace.Metric{
			{Name: "frames", Value: float64(bs.Frames)},
			{Name: "bytes", Value: float64(bs.Bytes)},
			{Name: "dropped", Value: float64(bs.Dropped)},
			{Name: "broadcasts", Value: float64(bs.Broadcasts)},
			{Name: "busy_ms", Value: bs.BusyTime.Seconds() * 1000},
		}
	})
	selPolicy := opt.Select
	if selPolicy == nil {
		selPolicy = sched.FirstResponse{}
	}
	// Load dissemination: every kernel stamps its replies with a load
	// advertisement (piggybacking costs no extra frames); the broadcast
	// beacon runs only for load-aware policies, so the paper-baseline
	// first-response configuration puts nothing extra on the wire.
	beacon := time.Duration(0)
	if selPolicy.LoadAware() {
		beacon = params.LoadBeaconInterval
	}
	// Size the binding caches to the cluster: every host may hold a live
	// reply-path binding per peer (boot registration, select-reply bursts),
	// and the file server always does. Left at the params default, a
	// >64-host cluster livelocks at boot — evicted reply bindings turn into
	// locate broadcasts faster than the retransmitting herd lets them
	// resolve.
	bindCap := 2*opt.Workstations + 8
	// Multicast select replies are dallied on large clusters: hundreds of
	// hosts finishing the probe evaluation at the same instant would
	// otherwise transmit simultaneously and jam the segment (reply
	// implosion). Small clusters keep the paper's exact timings.
	var dally time.Duration
	// Reply thinning rides the same gate: multicast queries on a large
	// cluster carry a permille sized so ~SelectReplyTarget hosts answer
	// (and only those pay the probe evaluation); small clusters keep
	// every-willing-host-answers semantics.
	var replyPermille uint32
	if opt.Workstations >= params.SelectDallyMinHosts {
		dally = time.Duration(opt.Workstations) * params.SelectDallyPerHost
		if dally > params.SelectDallyMax {
			dally = params.SelectDallyMax
		}
		replyPermille = uint32(1000 * params.SelectReplyTarget / opt.Workstations)
		if replyPermille > 1000 {
			replyPermille = 1000
		}
		if replyPermille == 0 {
			replyPermille = 1
		}
	}
	for i := 0; i < opt.Workstations; i++ {
		h := kernel.NewHost(eng, bus, i, fmt.Sprintf("ws%d", i))
		h.IPC.SetBindingCacheCap(bindCap)
		h.AttachTrace(tb)
		registerHostMetrics(tb, h)
		n := &Node{Host: h, cluster: c}
		n.PM = progmgr.Start(h)
		n.PM.SelectDally = dally
		cache := sched.NewCache(eng.Now)
		n.Selector = sched.NewSelector(selPolicy, cache,
			vid.GroupProgramManagers, progmgr.PmSelectHost,
			uint16(h.NIC.MAC()), tb,
			rand.New(rand.NewSource(opt.Seed+int64(i+1)*7919)))
		n.Selector.ReplyPermille = replyPermille
		h.IPC.SetLoadSink(cache.Observe)
		h.EnableLoadAds(beacon)
		tb.RegisterSource("sched/"+h.Name, n.Selector.Metrics)
		n.PM.Migrator = &Migrator{Policy: opt.Policy, Cluster: c, FaultHook: c.Fault.OnPhase, Selector: n.Selector}
		n.PM.Selector = n.Selector
		registerSupMetrics(tb, n)
		n.Display = display.Start(h)
		c.Nodes = append(c.Nodes, n)
		c.Fault.RegisterHost(h.NIC.MAC(), h.Crash, n.Restart)
	}
	// Selection caches and session supervisors react to injected faults
	// and detector verdicts: a crash drops (and negatively caches) the
	// dead host's entries everywhere and breaks every session it hosted;
	// a suspicion does the same, but only on the host whose detector
	// formed it — suspicion is local evidence, not cluster-wide truth;
	// partitions and heals flush every cache — any cached view may be
	// stale on either side of the cut. Subscribers only flip state, never
	// send: recovery runs on the pm-lease workers.
	tb.Subscribe(func(ev trace.Event) {
		switch ev.Kind {
		case trace.EvHostCrash:
			for _, n := range c.Nodes {
				n.Selector.Cache.DropHost(ev.Host)
				n.PM.NoteHostDown(ev.Host)
			}
		case trace.EvHostSuspect:
			for _, n := range c.Nodes {
				if uint16(n.Host.NIC.MAC()) == ev.Host {
					n.Selector.Cache.DropHost(ev.Peer)
					n.PM.NoteHostSuspect(ev.Peer)
				}
			}
		case trace.EvPartition, trace.EvHeal:
			for _, n := range c.Nodes {
				n.Selector.Cache.Flush()
			}
		}
	})
	// Home PM group: the first ReplicateHome workstations' program managers
	// form a consensus group replicating the session-supervision registry,
	// so losing the member that happens to lead supervision does not lose
	// the user's sessions.
	nhome := opt.ReplicateHome
	if nhome > opt.Workstations {
		nhome = opt.Workstations
	}
	if nhome >= 2 {
		for i := 0; i < nhome; i++ {
			c.homeStores = append(c.homeStores, rsm.NewStore())
			c.Nodes[i].PM.EnableHomeGroup(i, nhome, c.homeStores[i])
		}
	}
	// Server machines: one unreplicated host by default, or ReplicateFS
	// consensus-backed replicas, each carrying a file-server and a
	// name-server replica over shared durable stores.
	nfs := opt.ReplicateFS
	if nfs < 2 {
		nfs = 1
	}
	for j := 0; j < nfs; j++ {
		name := "fserv"
		if nfs > 1 {
			name = fmt.Sprintf("fserv%d", j)
		}
		h := kernel.NewHost(eng, bus, opt.Workstations+j, name)
		h.IPC.SetBindingCacheCap(bindCap)
		h.AttachTrace(tb)
		h.EnableLoadAds(0)
		registerHostMetrics(tb, h)
		c.FSHosts = append(c.FSHosts, h)
		c.fsStores = append(c.fsStores, rsm.NewStore())
		c.nsStores = append(c.nsStores, rsm.NewStore())
		c.FSReps = append(c.FSReps, fileserver.Start(h, j, nfs, c.fsStores[j]))
		c.NSReps = append(c.NSReps, nameserver.Start(h, j, nfs, c.nsStores[j]))
		j := j
		c.Fault.RegisterHost(h.NIC.MAC(), h.Crash, func() { c.restartFSReplica(j) })
	}
	c.FSHost, c.FS, c.NS = c.FSHosts[0], c.FSReps[0], c.NSReps[0]
	// Resident servers announce themselves to the global name service. The
	// replicated service registers its group id — a pinned replica PID
	// would die with that replica.
	nameserver.RegisterSelf(c.FSHost, "fileserver", c.fsRegistryPID())
	// Stagger the workstations' boot registrations the way their load
	// beacons already are: launched simultaneously, a big cluster's
	// registration herd retransmits against the name server faster than
	// its host can even classify the duplicates.
	for i, n := range c.Nodes {
		d := time.Duration(i) * 10 * time.Millisecond
		nameserver.RegisterSelfAt(n.Host, "display."+n.Name(), n.Display.PID(), d)
		nameserver.RegisterSelfAt(n.Host, "progmgr."+n.Name(), n.PM.PID(), d)
	}
	return c
}

// registerHostMetrics exposes one host's counters through the trace bus's
// metrics registry. Every metric function takes fresh Stats() snapshots —
// never references into live counters.
func registerHostMetrics(tb *trace.Bus, h *kernel.Host) {
	tb.RegisterSource("host/"+h.Name, func() []trace.Metric {
		st := h.IPC.Stats()
		freezes, frozen := h.FreezeStats()
		return []trace.Metric{
			{Name: "tx_packets", Value: float64(st.TxPackets)},
			{Name: "rx_packets", Value: float64(st.RxPackets)},
			{Name: "rx_corrupt", Value: float64(st.RxCorrupt)},
			{Name: "retransmits", Value: float64(st.Retransmits)},
			{Name: "locates", Value: float64(st.Locates)},
			{Name: "reply_pendings", Value: float64(st.ReplyPendings)},
			{Name: "local_deliveries", Value: float64(st.LocalDeliveries)},
			{Name: "freezes", Value: float64(freezes)},
			{Name: "frozen_ms", Value: frozen.Seconds() * 1000},
			{Name: "cpu_util", Value: h.CPU.Utilization()},
		}
	})
}

// registerSupMetrics exposes a node's session-supervision counters. It
// closes over the node, not the manager — the manager is replaced on
// restart.
func registerSupMetrics(tb *trace.Bus, n *Node) {
	tb.RegisterSource("sup/"+n.Name(), func() []trace.Metric {
		st := n.PM.SupStats()
		return []trace.Metric{
			{Name: "lease_renews", Value: float64(st.LeaseRenews)},
			{Name: "lease_expires", Value: float64(st.LeaseExpires)},
			{Name: "exec_restarts", Value: float64(st.ExecRestarts)},
		}
	})
}

// Install stores a program image on every file-server replica (and
// remembers it so a restarted server can be restocked). Boot images are
// poked directly rather than committed through the log: they are the
// immutable stock a real server reloads from disk, identical on every
// replica by construction.
func (c *Cluster) Install(img *image.Image) {
	data := img.Encode()
	c.images = append(c.images, installedImage{name: img.Name, data: data})
	for _, fs := range c.FSReps {
		fs.Put(img.Name, data)
	}
}

// fsRegistryPID is the PID registered under "fileserver": the group id
// when the service is replicated (a pinned replica PID would die with
// that replica), the single server's PID otherwise.
func (c *Cluster) fsRegistryPID() vid.PID {
	if len(c.FSReps) > 1 {
		return vid.GroupFileServers
	}
	return c.FS.PID()
}

// fsTarget resolves the file-server write target: the single server when
// unreplicated, the current leader as known by a live replica when one is
// known, else the file-server group (the leader answers, followers stay
// silent).
func (c *Cluster) fsTarget() vid.PID {
	if len(c.FSReps) <= 1 {
		return c.FS.PID()
	}
	for i, fs := range c.FSReps {
		if c.FSHosts[i].Crashed() {
			continue
		}
		want := fs.LeaderSvc()
		if want == vid.Nil {
			continue
		}
		// Only trust a hint that names a replica incarnation still alive —
		// a crashed or superseded leader PID would cost the client a failed
		// send before its group retry.
		for k, r := range c.FSReps {
			if !c.FSHosts[k].Crashed() && r.PID() == want {
				return want
			}
		}
	}
	return vid.GroupFileServers
}

// Restart reboots a crashed workstation: the kernel comes back with a
// fresh system logical host, then the resident servers (program manager,
// display) are restarted and re-announce themselves to the name service.
// Programs that were running before the crash are gone — the paper's V
// made no attempt to survive a host loss beyond migration (§3.1.3).
func (n *Node) Restart() {
	if !n.Host.Crashed() {
		return
	}
	c := n.cluster
	n.Host.Restart()
	n.PM = progmgr.Start(n.Host)
	n.PM.Migrator = &Migrator{Policy: c.policy, Cluster: c, FaultHook: c.Fault.OnPhase, Selector: n.Selector}
	n.PM.Selector = n.Selector
	// A home-group member rejoins the group over its surviving durable log
	// and catches up from the current leader (log replay or snapshot).
	if i := n.index(); i >= 0 && i < len(c.homeStores) {
		n.PM.EnableHomeGroup(i, len(c.homeStores), c.homeStores[i])
	}
	n.Display = display.Start(n.Host)
	nameserver.RegisterSelf(n.Host, "display."+n.Name(), n.Display.PID())
	nameserver.RegisterSelf(n.Host, "progmgr."+n.Name(), n.PM.PID())
}

// restartFSReplica reboots server machine j: its file-server and
// name-server replicas come back over the durable stores that survived
// the crash, restocked with every installed image (a real V file server
// would reload from disk); runtime mutations replay from the consensus
// log or arrive by snapshot once the replica rejoins.
func (c *Cluster) restartFSReplica(j int) {
	h := c.FSHosts[j]
	if !h.Crashed() {
		return
	}
	h.Restart()
	c.FSReps[j] = fileserver.Start(h, j, len(c.FSHosts), c.fsStores[j])
	c.NSReps[j] = nameserver.Start(h, j, len(c.FSHosts), c.nsStores[j])
	for _, img := range c.images {
		c.FSReps[j].Put(img.name, img.data)
	}
	if j == 0 {
		c.FS, c.NS = c.FSReps[0], c.NSReps[0]
	}
	nameserver.RegisterSelf(h, "fileserver", c.fsRegistryPID())
}

// homeEnabled reports whether the cluster runs a replicated home PM group.
func (c *Cluster) homeEnabled() bool { return len(c.homeStores) > 0 }

// index returns the node's position in the cluster (-1 if foreign).
func (n *Node) index() int {
	for i, nn := range n.cluster.Nodes {
		if nn == n {
			return i
		}
	}
	return -1
}

// HomeLeaderIdx returns the workstation index currently leading the home
// PM group (-1 when no fenced leader exists or the group is disabled).
func (c *Cluster) HomeLeaderIdx() int {
	for i := 0; i < len(c.homeStores) && i < len(c.Nodes); i++ {
		n := c.Nodes[i]
		if !n.Host.Crashed() && n.PM.HomeReplica() != nil && n.PM.HomeReplica().IsLeader() {
			return i
		}
	}
	return -1
}

// Run advances the cluster by d of virtual time.
func (c *Cluster) Run(d time.Duration) { c.Sim.RunFor(d) }

// Node returns the workstation with the given index.
func (c *Cluster) Node(i int) *Node { return c.Nodes[i] }

// NodeByLH maps a system logical-host id back to its node (nil if it is
// not a workstation's system LH).
func (c *Cluster) NodeByLH(lh vid.LHID) *Node {
	for _, n := range c.Nodes {
		if n.Host.SystemLH().ID() == lh {
			return n
		}
	}
	return nil
}

// FindProgram locates a program's logical host anywhere in the cluster
// (experiments/tools; not a simulated operation).
func (c *Cluster) FindProgram(lhid vid.LHID) (*Node, *kernel.LogicalHost) {
	for _, n := range c.Nodes {
		if lh, ok := n.Host.LookupLH(lhid); ok {
			return n, lh
		}
	}
	return nil, nil
}

// Agent spawns a user agent — the command-interpreter stand-in — on the
// node, running fn. The returned process finishes when fn returns.
func (n *Node) Agent(fn func(a *Agent)) *kernel.Process {
	n.cluster.agents++
	name := fmt.Sprintf("agent%d", n.cluster.agents)
	return n.Host.SpawnServer(name, 16*1024, func(ctx *kernel.ProcCtx) {
		fn(&Agent{node: n, ctx: ctx})
	})
}

// Agent is the user's command interpreter: it executes programs locally or
// remotely, waits for them, and preempts them — the client side of §2 and
// §3. All methods block within the simulation and must only be called from
// the agent's own function.
type Agent struct {
	node  *Node
	ctx   *kernel.ProcCtx
	names map[string]vid.PID // local name cache (§6)
}

// Resolve maps a symbolic name to a PID, consulting the agent's cache
// first and the global name-server group on a miss.
func (a *Agent) Resolve(name string) (vid.PID, error) {
	if pid, ok := a.names[name]; ok {
		return pid, nil
	}
	pid, err := nameserver.Lookup(a.ctx, name)
	if err != nil {
		return vid.Nil, err
	}
	if a.names == nil {
		a.names = make(map[string]vid.PID)
	}
	a.names[name] = pid
	return pid, nil
}

// Node returns the agent's home workstation.
func (a *Agent) Node() *Node { return a.node }

// Ctx exposes the underlying process context for advanced scenarios.
func (a *Agent) Ctx() *kernel.ProcCtx { return a.ctx }

// Println writes a line to the home workstation's display.
func (a *Agent) Println(s string) {
	a.ctx.Send(a.node.Display.PID(), vid.Message{Op: display.OpWriteLine, Seg: []byte(s)})
}

// Sleep suspends the agent.
func (a *Agent) Sleep(d time.Duration) { a.ctx.Sleep(d) }

// Now returns the virtual time.
func (a *Agent) Now() sim.Time { return a.ctx.Now() }

// Stats is a cluster-wide metrics snapshot (operator tooling).
type Stats struct {
	VirtualTime  sim.Time
	Frames       int64
	FramesLost   int64
	BusBusy      time.Duration
	Hosts        []HostStats
	ServerFrames int64 // file-server machine traffic
}

// HostStats describes one workstation.
type HostStats struct {
	Name        string
	Utilization float64
	Idle        bool
	Crashed     bool
	MemFreeKB   uint32
	Guests      int
	Locals      int
	TxPackets   int64
	RxPackets   int64
	Retransmits int64
	Locates     int64
	Freezes     int64
	FrozenTime  time.Duration
	TxFrames    int64
	RxFrames    int64
}

// Snapshot collects cluster-wide metrics.
func (c *Cluster) Snapshot() Stats {
	bs := c.Bus.Stats()
	st := Stats{
		VirtualTime: c.Sim.Now(),
		Frames:      bs.Frames,
		FramesLost:  bs.Dropped,
		BusBusy:     bs.BusyTime,
	}
	for _, n := range c.Nodes {
		ipcStats := n.Host.IPC.Stats()
		freezes, frozen := n.Host.FreezeStats()
		hs := HostStats{
			Name:        n.Name(),
			Utilization: n.Host.CPU.Utilization(),
			Idle:        n.Host.CPU.Idle(),
			Crashed:     n.Host.Crashed(),
			MemFreeKB:   n.Host.MemFree() / 1024,
			TxPackets:   ipcStats.TxPackets,
			RxPackets:   ipcStats.RxPackets,
			Retransmits: ipcStats.Retransmits,
			Locates:     ipcStats.Locates,
			Freezes:     freezes,
			FrozenTime:  frozen,
		}
		hs.TxFrames, hs.RxFrames = n.Host.NIC.Counters()
		for _, lh := range n.Host.LHs() {
			if lh.System() {
				continue
			}
			if lh.Guest() {
				hs.Guests++
			} else {
				hs.Locals++
			}
		}
		st.Hosts = append(st.Hosts, hs)
	}
	tx, rx := c.FSHost.NIC.Counters()
	st.ServerFrames = tx + rx
	return st
}
