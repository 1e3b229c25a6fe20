package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"github.com/moara/moara/internal/core"
	"github.com/moara/moara/internal/predicate"
	"github.com/moara/moara/internal/value"
)

// groupsMix is sim-groups' one-shot query mix over the flipping
// groups: small and mid groups, one large group, and and/or composites
// that go through cover planning.
var groupsMix = []string{
	"sum(load) where small = true",
	"count(*) where mid = true",
	"sum(load) group by slice where mid = true",
	"max(load) where large = true",
	"count(*) where small = true and large = true",
	"sum(load) where small = true or mid = true",
	"min(load) group by slice where small = true",
}

// flipAttrs are the predicate attributes sim-groups flips.
var flipAttrs = []string{"small", "mid"}

// groupSwaps draws one query's flips of the flip attributes (a whole
// number of pairs) and applies them to the world: each pair moves one
// node out of a group and another node, in neither group, into it.
// Group sizes stay at their initial shares and small and mid stay
// disjoint, so the work a query does is the same at the end of a run as
// at its start.
func groupSwaps(w *world, rng *rand.Rand, flips int) [][2]int {
	n := len(w.attrs)
	in := func(i int, name string) bool {
		b, _ := w.attrs[i][name].AsBool()
		return b
	}
	draw := func(ok func(int) bool) int {
		for {
			if i := rng.Intn(n); ok(i) {
				return i
			}
		}
	}
	out := make([][2]int, 0, flips)
	for len(out)+2 <= flips {
		a := rng.Intn(len(flipAttrs))
		name := flipAttrs[a]
		leave := draw(func(i int) bool { return in(i, name) })
		join := draw(func(i int) bool {
			for _, other := range flipAttrs {
				if in(i, other) {
					return false
				}
			}
			return true
		})
		w.attrs[leave][name] = value.Bool(false)
		w.attrs[join][name] = value.Bool(true)
		out = append(out, [2]int{leave, a}, [2]int{join, a})
	}
	return out
}

// simRun is the per-query record of a simulator loop.
type simRun struct {
	queries  int64
	wall     time.Duration // simulator time only: flips, settling, queries
	opWall   []float64     // per query, ms
	opCPU    []float64     // per query, ms
	vlat     []float64     // virtual turnaround (ms) of the first exact queries
	msgs     int64         // logical Moara messages over the exact prefix
	wireMsgs int64
}

func (r *simRun) add(wall, cpu time.Duration) {
	r.wall += wall
	r.opWall = append(r.opWall, ms(wall))
	r.opCPU = append(r.opCPU, ms(cpu))
}

// perOp returns the wall and CPU time per query over whole cycles of
// cycle queries; a cycle asks every query of the mix once. Wall time is
// the lower quartile over cycles: on a shared host a neighbour can take
// a vCPU for seconds, which stalls the sharded engine's barriers
// outright, and the lower quartile measures the simulator rather than
// the stall. CPU time, which a stolen vCPU does not add to, is the
// median.
func (r *simRun) perOp(cycle int) (wallMs, cpuMs float64) {
	var walls, cpus []float64
	for lo := 0; lo+cycle <= len(r.opWall); lo += cycle {
		w, c := 0.0, 0.0
		for i := lo; i < lo+cycle; i++ {
			w += r.opWall[i]
			c += r.opCPU[i]
		}
		walls = append(walls, w/float64(cycle))
		cpus = append(cpus, c/float64(cycle))
	}
	return quantile(walls, 0.25), median(cpus)
}

// simGroupsSetup boots a sim-groups cluster and warms it until the
// first exact answer.
func simGroupsSetup(c simCluster, w *world) error {
	loadWorld(c, w)
	text := "count(*) where mid = true"
	exp := w.expect(mustParse(text))
	for try := 0; try < 10; try++ {
		res, err := c.query(0, text)
		if err == nil && exp.check(res) == nil {
			return nil
		}
		c.runFor(time.Second)
	}
	return fmt.Errorf("sim-groups: no exact answer during warm-up")
}

// simGroupsLoop runs flips and one-shot queries from random origins at
// a fixed ratio of flips to queries, settling the flips in virtual time
// before each query, until done says stop. Queries cycle through the
// mix in order, so every run asks each query equally often. The first
// exact queries make the exact counts.
func simGroupsLoop(c simCluster, w *world, rng *rand.Rand, sz sizes, o *outcome, done func(q int64) bool, step func()) simRun {
	reqs := make([]core.Request, len(groupsMix))
	for i, t := range groupsMix {
		reqs[i] = mustParse(t)
	}
	n := len(w.attrs)
	var r simRun
	c.resetCounter()
	for ; !done(r.queries); r.queries++ {
		flips := groupSwaps(w, rng, sz.flipsPerQuery)
		qi, origin := int(r.queries)%len(groupsMix), rng.Intn(n)
		start, cpu0 := time.Now(), cpuTime()
		for _, f := range flips {
			name := flipAttrs[f[1]]
			c.setAttr(f[0], name, w.attrs[f[0]][name])
		}
		c.runFor(sz.settle)
		res, err := c.query(origin, groupsMix[qi])
		r.add(time.Since(start), cpuTime()-cpu0)
		if step != nil {
			step()
		}
		o.attempted++
		if err != nil {
			o.fail(false, fmt.Errorf("%s: %w", groupsMix[qi], err))
		} else if err := w.expect(reqs[qi]).check(res); err != nil {
			o.fail(true, fmt.Errorf("%s: %w", groupsMix[qi], err))
		}
		if r.queries < int64(sz.exactQueries) {
			r.vlat = append(r.vlat, ms(res.Stats.TotalTime))
			if r.queries == int64(sz.exactQueries)-1 {
				r.msgs, r.wireMsgs = c.messages()
			}
		}
	}
	return r
}

// simScale is the sim-scale workload's state: a standing grouped query
// installed beside the one-shots, with its samples checked as they
// arrive.
type simScale struct {
	c       simCluster
	exp     expected
	mu      sync.Mutex
	samples []core.Sample
}

const scaleQuery = "sum(load) group by rack"

func simScaleSetup(c simCluster, w *world, sz sizes) (*simScale, error) {
	loadWorld(c, w)
	s := &simScale{c: c, exp: w.expect(mustParse(scaleQuery))}
	err := c.subscribe(0, fmt.Sprintf("%s every %v", scaleQuery, sz.scalePeriod), func(sm core.Sample) {
		s.mu.Lock()
		s.samples = append(s.samples, sm)
		s.mu.Unlock()
	})
	if err != nil {
		return nil, fmt.Errorf("sim-scale: subscribe: %w", err)
	}
	warm := false
	for try := 0; !warm && try < 100; try++ {
		c.runFor(sz.scalePeriod)
		var o outcome
		warm = s.drain(&o) > 0 && o.failed == 0
	}
	if !warm {
		return nil, fmt.Errorf("sim-scale: no complete warm sample during warm-up")
	}
	res, err := c.query(0, scaleQuery)
	if err != nil {
		return nil, fmt.Errorf("sim-scale: warm-up query: %w", err)
	}
	if err := s.exp.check(res); err != nil {
		return nil, fmt.Errorf("sim-scale: warm-up query: %w", err)
	}
	var o outcome
	s.drain(&o)
	return s, nil
}

// drain checks the samples delivered so far: cold samples are counted
// but not compared, warm ones must cover every node and match the
// oracle exactly. It returns the number of warm samples.
func (s *simScale) drain(o *outcome) int {
	s.mu.Lock()
	samples := s.samples
	s.samples = nil
	s.mu.Unlock()
	warm := 0
	for _, sm := range samples {
		if sm.ColdStart {
			continue
		}
		warm++
		o.attempted++
		switch {
		case sm.Err != nil:
			o.fail(false, sm.Err)
		case sm.Contributors != s.exp.members:
			o.fail(false, fmt.Errorf("sim-scale: warm sample with %d of %d contributors", sm.Contributors, s.exp.members))
		default:
			if err := s.exp.check(sm.Result); err != nil {
				o.fail(true, fmt.Errorf("sim-scale sample: %w", err))
			}
		}
	}
	return warm
}

// simScaleLoop runs one-shot grouped queries from random origins while
// the standing query ticks beside them.
func (s *simScale) loop(rng *rand.Rand, n int, sz sizes, o *outcome, done func(q int64) bool, step func()) simRun {
	var r simRun
	s.c.resetCounter()
	for ; !done(r.queries); r.queries++ {
		origin := rng.Intn(n)
		start, cpu0 := time.Now(), cpuTime()
		res, err := s.c.query(origin, scaleQuery)
		r.add(time.Since(start), cpuTime()-cpu0)
		if step != nil {
			step()
		}
		o.attempted++
		if err != nil {
			o.fail(false, err)
		} else if err := s.exp.check(res); err != nil {
			o.fail(true, fmt.Errorf("sim-scale: %w", err))
		}
		s.drain(o)
		if r.queries < int64(sz.exactQueries) {
			r.vlat = append(r.vlat, ms(res.Stats.TotalTime))
			if r.queries == int64(sz.exactQueries)-1 {
				r.msgs, r.wireMsgs = s.c.messages()
			}
		}
	}
	return r
}

// runSim runs one simulator workload. The measured run sets the
// cluster up sz.setups times (median set-up time) and then measures for
// the run's length, with the exact counts taken over the first
// sz.exactQueries queries. The traced run measures a shorter untraced
// phase, repeats it on a profiled mirror, which must reproduce the exact
// counts, and replays the captured traffic through each layer.
func runSim(name string, p params) (*outcome, error) {
	sz := p.sizes
	scale := name == "sim-scale"
	n, racks := sz.groupsN, 0
	model := simModel{lan: true}
	if scale {
		n, racks = sz.scaleN, sz.scaleKeys
		model = simModel{shards: max(2, p.nproc), base: 5 * time.Millisecond, spread: 20 * time.Millisecond}
	}
	nodeIDs := simNodeIDs(n)
	o := &outcome{}
	type deployment struct {
		c  simCluster
		w  *world
		sc *simScale
	}
	setup := func(c simCluster) (deployment, error) {
		d := deployment{c: c, w: newWorld(p.seed, nodeIDs, racks)}
		var err error
		if scale {
			d.sc, err = simScaleSetup(c, d.w, sz)
		} else {
			err = simGroupsSetup(c, d.w)
		}
		return d, err
	}
	run := func(d deployment, done func(int64) bool, step func()) simRun {
		rng := rand.New(rand.NewSource(p.seed + 1))
		if scale {
			return d.sc.loop(rng, n, sz, o, done, step)
		}
		return simGroupsLoop(d.c, d.w, rng, sz, o, done, step)
	}
	reps := sz.setups
	if p.trace {
		reps = 1
	}
	d, setupS, err := timeSetups(reps, func() (deployment, error) {
		return setup(newPublicSim(n, p.seed, model))
	})
	if err != nil {
		return nil, err
	}

	if !p.trace {
		deadline := time.Now().Add(p.seconds)
		cycle := int64(len(groupsMix))
		if scale {
			cycle = 1
		}
		r := run(d, func(q int64) bool {
			return q >= int64(sz.exactQueries) && q%cycle == 0 && time.Now().After(deadline)
		}, nil)
		wallMs, cpuMs := r.perOp(int(cycle))
		o.add("setup_s", "s", setupS)
		o.add("p50_ms", "ms", median(r.vlat))
		o.add("tail_ms", "ms", quantile(r.vlat, 0.9))
		o.add("ops_per_s", "1/s", 1000/wallMs)
		o.add("cpu_ms_per_op", "ms", cpuMs)
		o.add("msgs_per_op", "count", float64(r.msgs)/float64(sz.exactQueries))
		o.add("live_heap_mb", "MB", liveHeapMB())
		runtime.KeepAlive(d)
		return o, nil
	}

	// Traced run: untraced phase on the public cluster.
	fixed := func(q int64) bool { return q >= int64(sz.exactQueries) }
	rt0 := snapRuntime()
	plain := run(d, fixed, nil)
	runtimeMetrics(o, rt0, snapRuntime(), plain.queries)

	// Traced phase: the same queries on a profiled mirror.
	prof := &profile{}
	mr := newMirror(nodeIDs, p.seed, model, prof, nil)
	md, err := setup(mr)
	if err != nil {
		return nil, fmt.Errorf("traced mirror: %w", err)
	}
	prof.reset()
	peak := 0
	traced := run(md, fixed, func() { peak = max(peak, mr.net.PendingEvents()) })
	if traced.msgs != plain.msgs || fmt.Sprint(traced.vlat) != fmt.Sprint(plain.vlat) {
		o.fail(true, fmt.Errorf("traced mirror diverged from the public cluster: %d vs %d messages", traced.msgs, plain.msgs))
	}
	prof.report(o, traced.queries)
	o.add("core.coalesce_ratio", "ratio", float64(traced.wireMsgs)/float64(max(traced.msgs, 1)))
	o.add("simnet.msgs_per_wall_s", "1/s", float64(mr.net.Counter().Wire)/traced.wall.Seconds())
	o.add("simnet.pending_peak", "count", float64(peak))
	o.add("trace.overhead", "ratio", traced.wall.Seconds()/plain.wall.Seconds())
	w := md.w // md and mr are dead from here: one cluster in memory at a time

	// Capture: a classic-engine run of the same workload with a Tap.
	capModel := model
	capModel.shards = 0
	cp := newCapture()
	cm := newMirror(nodeIDs, p.seed, capModel, nil, cp.tap)
	cd, err := setup(cm)
	if err != nil {
		return nil, fmt.Errorf("capture mirror: %w", err)
	}
	cp.frames, cp.kinds, cp.routeKeys = nil, nil, nil
	capQueries := int64(sz.captureOps)
	run(cd, func(q int64) bool { return q >= capQueries }, nil)
	replayCodec(o, cp, capQueries)
	texts := groupsMix
	aggReq := mustParse("sum(load) group by slice where mid = true")
	if scale {
		texts = []string{scaleQuery}
		aggReq = mustParse(scaleQuery)
	}
	stores := make([]predicate.Getter, 0, 64)
	for i := 0; i < min(n, 64); i++ {
		stores = append(stores, cm.nodes[i].Store())
	}
	replayFrontEnd(o, texts, stores)
	replayAggregate(o, w, aggReq)
	replayPastry(o, cm, cp.routeKeys, nodeIDs)
	return o, nil
}
