package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"github.com/moara/moara"
	"github.com/moara/moara/internal/core"
	"github.com/moara/moara/internal/ids"
	"github.com/moara/moara/internal/pastry"
	"github.com/moara/moara/internal/simnet"
	"github.com/moara/moara/internal/value"
)

// simCluster is the surface the simulator workloads drive. Measured
// runs use the public moara.SimCluster; traced runs use a mirror built
// from simnet, core and pastry directly, so the benchmark can wrap each
// node's handler and timers without instrumenting the program.
type simCluster interface {
	setAttr(i int, name string, v value.Value)
	query(i int, text string) (core.Result, error)
	subscribe(i int, text string, fn func(core.Sample)) error
	runFor(d time.Duration)
	// messages returns the logical and wire counts of Moara-layer
	// messages since the last resetCounter.
	messages() (logical, wire int64)
	resetCounter()
}

// simModel is a network model shared by both cluster forms.
type simModel struct {
	lan          bool // the paper's Emulab LAN (classic scheduler)
	shards       int  // >= 2 selects the sharded scheduler
	base, spread time.Duration
}

func (m simModel) options(seed int64) []moara.Option {
	opts := []moara.Option{moara.WithSeed(seed)}
	if m.lan {
		return append(opts, moara.WithLANModel())
	}
	return append(opts, moara.WithShards(m.shards), moara.WithPairwiseModel(m.base, m.spread))
}

// netOptions mirrors what moara.NewSimCluster builds from options():
// the option bodies in moara.go and the machine mapping of
// internal/cluster. The traced run cross-checks its exact counts
// against the measured run, so a drift between the two shows up as a
// failed run rather than as silently different numbers.
func (m simModel) netOptions(seed int64, nodeIDs []ids.ID) simnet.Options {
	o := simnet.Options{Seed: seed}
	if m.lan {
		o.Latency = simnet.LAN(simnet.LANConfig{})
		o.ProcDelay = 800 * time.Microsecond
		o.ProcJitter = 400 * time.Microsecond
		o.SerializeProc = true
		machineOf := make(map[ids.ID]int, len(nodeIDs))
		for i, id := range nodeIDs {
			machineOf[id] = i / 10
		}
		o.CPUOf = func(id ids.ID) int {
			if mc, ok := machineOf[id]; ok {
				return mc
			}
			return -1
		}
		return o
	}
	if m.base == 0 {
		return o // simnet's default fixed 1ms latency
	}
	o.Latency = simnet.Pairwise(m.base, m.spread, seed)
	o.ProcDelay = 300 * time.Microsecond
	o.Shards = m.shards
	return o
}

// simNodeIDs are the identifiers moara.NewSimCluster gives its nodes.
func simNodeIDs(n int) []ids.ID {
	out := make([]ids.ID, n)
	for i := range out {
		out[i] = ids.FromKey(fmt.Sprintf("node-%d", i))
	}
	return out
}

// publicSim adapts moara.SimCluster.
type publicSim struct{ c *moara.SimCluster }

func newPublicSim(n int, seed int64, m simModel) publicSim {
	return publicSim{moara.NewSimCluster(n, m.options(seed)...)}
}

func (p publicSim) setAttr(i int, name string, v value.Value) { p.c.SetAttr(i, name, v) }

func (p publicSim) query(i int, text string) (core.Result, error) {
	return p.c.Client(i).Query(context.Background(), text)
}

func (p publicSim) subscribe(i int, text string, fn func(core.Sample)) error {
	_, err := p.c.Client(i).Subscribe(context.Background(), text, fn)
	return err
}

func (p publicSim) runFor(d time.Duration)   { p.c.RunFor(d) }
func (p publicSim) messages() (int64, int64) { return p.c.Messages(), p.c.WireMessages() }
func (p publicSim) resetCounter()            { p.c.ResetMessageCounter() }

// mirror is a simulated cluster assembled from simnet.New, core.NewNode
// and a pastry.Oracle, the way internal/cluster assembles one, with an
// optional profile wrapped around every node's handler and timers and
// an optional Tap.
type mirror struct {
	net   *simnet.Network
	nodes []*core.Node
}

func newMirror(nodeIDs []ids.ID, seed int64, m simModel, prof *profile, tap func(from, to ids.ID, msg any, lat time.Duration)) *mirror {
	sopts := m.netOptions(seed, nodeIDs)
	sopts.Tap = tap
	mr := &mirror{net: simnet.New(sopts), nodes: make([]*core.Node, len(nodeIDs))}
	for i, id := range nodeIDs {
		env := mr.net.AddNode(id)
		if prof == nil {
			mr.nodes[i] = core.NewNode(env, core.Config{}, pastry.Config{})
			env.BindHandler(mr.nodes[i])
			continue
		}
		mr.nodes[i] = core.NewNode(&timedEnv{Env: env, d: env, a: env, p: prof}, core.Config{}, pastry.Config{})
		env.BindHandler(timedHandler{mr.nodes[i], prof})
	}
	oracle := pastry.NewOracle(nodeIDs)
	for _, nd := range mr.nodes {
		oracle.Fill(nd.Overlay())
	}
	return mr
}

func (mr *mirror) setAttr(i int, name string, v value.Value) { mr.nodes[i].Store().Set(name, v) }

func (mr *mirror) query(i int, text string) (core.Result, error) {
	req, err := core.ParseRequest(text)
	if err != nil {
		return core.Result{}, err
	}
	var (
		res  core.Result
		qerr error
		done bool
	)
	mr.nodes[i].Execute(req, func(r core.Result, e error) { res, qerr, done = r, e, true })
	mr.net.RunWhile(func() bool { return !done })
	if !done {
		return core.Result{}, fmt.Errorf("query %q did not complete", text)
	}
	return res, qerr
}

func (mr *mirror) subscribe(i int, text string, fn func(core.Sample)) error {
	req, err := core.ParseRequest(text)
	if err != nil {
		return err
	}
	_, err = mr.nodes[i].Subscribe(req, fn)
	return err
}

func (mr *mirror) runFor(d time.Duration) { mr.net.RunFor(d) }

func (mr *mirror) messages() (logical, wire int64) {
	c := mr.net.Counter()
	for k, v := range c.ByKind() {
		if strings.HasPrefix(k, "moara.") {
			logical += v
		}
	}
	for k, v := range c.WireByKind() {
		if strings.HasPrefix(k, "moara.") {
			wire += v
		}
	}
	return logical, wire
}

func (mr *mirror) resetCounter() { mr.net.ResetCounter() }

// loadWorld writes every node's attributes into a cluster.
func loadWorld(c simCluster, w *world) {
	for i := range w.attrs {
		for _, name := range w.names(i) {
			c.setAttr(i, name, w.attrs[i][name])
		}
	}
}
