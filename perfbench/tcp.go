package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/moara/moara"
	"github.com/moara/moara/internal/core"
	"github.com/moara/moara/internal/ids"
	"github.com/moara/moara/internal/predicate"
	"github.com/moara/moara/internal/transport"
	"github.com/moara/moara/internal/value"
)

// oneshotMix is tcp-oneshot's read-only query mix: scalar, grouped,
// small- and large-group filters, and/or composites that exercise cover
// planning, and one sketch aggregate.
var oneshotMix = []string{
	"sum(load)",
	"sum(load) group by slice",
	"avg(load) group by slice where large = true",
	"count(*) where small = true",
	"max(load) where large = true",
	"min(load) where mid = true",
	"sum(load) where small = true and large = true",
	"count(*) group by slice where small = true or mid = true",
	"dcount(os)",
}

// tcpDeploy is one in-process deployment of agents on loopback TCP.
type tcpDeploy struct {
	agents []*moara.Agent
	w      *world
}

// tcpAddrs derives the agents' listen addresses of one boot from the
// seed and the boot's index. Overlay identifiers are MD5(addr), so fixed
// addresses give every run of a seed the same trees, and each boot of a
// run its own trees: the boots a run pools then average over tree
// shapes instead of repeating one. Ports stay below Linux's ephemeral
// range.
func tcpAddrs(seed int64, boot, n int) []string {
	h := fnv.New64a()
	fmt.Fprint(h, seed)
	base := 20000 + int((h.Sum64()+uint64(boot))%48)*256
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("127.0.0.1:%d", base+i)
	}
	return out
}

// bootTCP starts n agents on their fixed addresses and loads the world
// into them. An address already in use fails the run: falling back to a
// random port would reshuffle the trees.
func bootTCP(seed int64, boot, n int) (*tcpDeploy, error) {
	addrs := tcpAddrs(seed, boot, n)
	nodeIDs := make([]ids.ID, n)
	for i, a := range addrs {
		nodeIDs[i] = transport.IDOf(a)
	}
	d := &tcpDeploy{w: newWorld(seed, nodeIDs, 0)}
	for _, addr := range addrs {
		a, err := moara.ListenAgent(addr, addrs, moara.AgentOptions{})
		if err != nil {
			d.close()
			return nil, fmt.Errorf("bind fixed address %s: %w", addr, err)
		}
		d.agents = append(d.agents, a)
	}
	for i, a := range d.agents {
		for _, name := range d.w.names(i) {
			a.Attrs().Set(name, d.w.attrs[i][name])
		}
	}
	return d, nil
}

func (d *tcpDeploy) close() {
	var wg sync.WaitGroup
	for _, a := range d.agents {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a.Close()
		}()
	}
	wg.Wait()
}

// wireStats sums the agents' transport counters.
func (d *tcpDeploy) wireStats() transport.Stats {
	var t transport.Stats
	for _, a := range d.agents {
		s := a.Stats()
		t.MsgsOut += s.MsgsOut
		t.BytesOut += s.BytesOut
		t.DecodeErrors += s.DecodeErrors
		t.Dials += s.Dials
	}
	return t
}

const queryTimeout = 5 * time.Second

// oneshotSetup boots the agents and queries until the first exact
// answer of a query that spans every node.
func oneshotSetup(p params, boot int) (*tcpDeploy, error) {
	d, err := bootTCP(p.seed, boot, p.sizes.tcpNodes)
	if err != nil {
		return nil, err
	}
	text := "sum(load) group by slice"
	exp := d.w.expect(mustParse(text))
	for try := 0; try < 50; try++ {
		ctx, cancel := context.WithTimeout(context.Background(), queryTimeout)
		res, err := d.agents[0].Query(ctx, text)
		cancel()
		if err == nil && exp.check(res) == nil {
			return d, nil
		}
		time.Sleep(100 * time.Millisecond)
	}
	d.close()
	return nil, errors.New("tcp-oneshot: no exact answer during warm-up")
}

// oneshotPhase is what a closed-loop phase of tcp-oneshot measured.
type oneshotPhase struct {
	lat, lockWait []float64 // ms, µs
	answered      int64
	wall, cpu     time.Duration
	wire          transport.Stats
	windows       []window // count: answered queries
}

// oneshotLoop runs the closed loop: each client reads one attribute
// from a random agent (checked, and timed as lock wait), then issues a
// random query of the mix from a random agent and waits for it.
func oneshotLoop(d *tcpDeploy, p params, salt int64, dur time.Duration, o *outcome) oneshotPhase {
	reqs := make([]expected, len(oneshotMix))
	for i, t := range oneshotMix {
		reqs[i] = d.w.expect(mustParse(t))
	}
	n := len(d.agents)
	type clientRec struct {
		lat, lockWait []float64
		out           outcome
	}
	recs := make([]clientRec, p.sizes.tcpClients)
	var answered atomic.Int64
	w0, cpu0, start := d.wireStats(), cpuTime(), time.Now()
	deadline := start.Add(dur)
	windows := sampleWindows(deadline, windowOf(dur), answered.Load)
	var wg sync.WaitGroup
	for c := range recs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := &recs[c]
			rng := rand.New(rand.NewSource(p.seed*1000 + salt*10 + int64(c)))
			for time.Now().Before(deadline) {
				probe, qi, origin := rng.Intn(n), rng.Intn(len(oneshotMix)), rng.Intn(n)
				t0 := time.Now()
				v := d.agents[probe].Attrs().Get("load")
				rec.lockWait = append(rec.lockWait, float64(time.Since(t0))/float64(time.Microsecond))
				rec.out.attempted++
				if !sameValue(v, d.w.attrs[probe]["load"]) {
					rec.out.fail(true, fmt.Errorf("agent %d read load=%v, want %v", probe, v, d.w.attrs[probe]["load"]))
				}
				ctx, cancel := context.WithTimeout(context.Background(), queryTimeout)
				t0 = time.Now()
				res, err := d.agents[origin].Query(ctx, oneshotMix[qi])
				lat := time.Since(t0)
				cancel()
				rec.out.attempted++
				if err != nil {
					rec.out.fail(false, fmt.Errorf("%s: %w", oneshotMix[qi], err))
					continue
				}
				if err := reqs[qi].check(res); err != nil {
					rec.out.fail(true, fmt.Errorf("%s: %w", oneshotMix[qi], err))
					continue
				}
				rec.lat = append(rec.lat, ms(lat))
				answered.Add(1)
			}
		}()
	}
	wg.Wait()
	ph := oneshotPhase{wall: time.Since(start), cpu: cpuTime() - cpu0, windows: windows()}
	w1 := d.wireStats()
	ph.wire = transport.Stats{MsgsOut: w1.MsgsOut - w0.MsgsOut, BytesOut: w1.BytesOut - w0.BytesOut,
		DecodeErrors: w1.DecodeErrors, Dials: w1.Dials}
	for _, r := range recs {
		ph.lat = append(ph.lat, r.lat...)
		ph.lockWait = append(ph.lockWait, r.lockWait...)
		o.attempted += r.out.attempted
		o.failed += r.out.failed
		o.wrong += r.out.wrong
		if o.firstErr == "" {
			o.firstErr = r.out.firstErr
		}
	}
	ph.answered = int64(len(ph.lat))
	return ph
}

func transportMetrics(o *outcome, w transport.Stats, ops int64, lockWait []float64) {
	o.add("transport.msgs_per_op", "count", float64(w.MsgsOut)/float64(max(ops, 1)))
	o.add("transport.bytes_per_msg", "bytes", float64(w.BytesOut)/float64(max(w.MsgsOut, 1)))
	o.add("transport.bytes_per_op", "bytes", float64(w.BytesOut)/float64(max(ops, 1)))
	o.add("transport.dials", "count", float64(w.Dials))
	o.add("transport.decode_errors", "count", float64(w.DecodeErrors))
	o.add("transport.lock_wait_us_p50", "us", median(lockWait))
	o.add("transport.lock_wait_us_p99", "us", quantile(lockWait, 0.99))
}

// oneshotMeasured is the untraced tcp-oneshot run. Each of its set-ups
// is measured for an equal share of the run and then torn down: a TCP
// deployment's speed varies from one boot to the next, so pooling
// several boots steadies the figures.
func oneshotMeasured(p params, o *outcome) (*outcome, error) {
	var setups, heaps, lat, rates, cpus []float64
	var msgs, answered int64
	for r := range p.sizes.setups {
		base := liveHeapMB()
		start := time.Now()
		d, err := oneshotSetup(p, r)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		// Let connections and caches settle before measuring.
		oneshotLoop(d, p, 0, p.sizes.tcpWarm, &outcome{})
		ph := oneshotLoop(d, p, int64(r+1), p.seconds/time.Duration(p.sizes.setups), o)
		heaps = append(heaps, liveHeapMB()-base)
		d.close()
		lat = append(lat, ph.lat...)
		rates = append(rates, windowValues(ph.windows, func(secs, _, n float64) float64 { return n / secs })...)
		cpus = append(cpus, windowValues(ph.windows, func(_, cpuMs, n float64) float64 { return cpuMs / n })...)
		msgs += int64(ph.wire.MsgsOut)
		answered += ph.answered
	}
	o.add("setup_s", "s", median(setups))
	o.add("p50_ms", "ms", median(lat))
	o.add("tail_ms", "ms", quantile(lat, 0.99))
	o.add("ops_per_s", "1/s", median(rates))
	o.add("cpu_ms_per_op", "ms", median(cpus))
	o.add("msgs_per_op", "count", float64(msgs)/float64(max(answered, 1)))
	o.add("live_heap_mb", "MB", median(heaps))
	return o, nil
}

func runTCPOneshot(p params) (*outcome, error) {
	o := &outcome{}
	if !p.trace {
		return oneshotMeasured(p, o)
	}
	d, err := oneshotSetup(p, 0)
	if err != nil {
		return nil, err
	}
	defer d.close()
	oneshotLoop(d, p, 0, p.sizes.tcpWarm, &outcome{})

	half := p.seconds / 2
	rt0 := snapRuntime()
	plain := oneshotLoop(d, p, 1, half, o)
	runtimeMetrics(o, rt0, snapRuntime(), plain.answered)
	traced := oneshotLoop(d, p, 2, half, o)
	transportMetrics(o, traced.wire, traced.answered, traced.lockWait)
	o.add("trace.overhead", "ratio", (traced.wall.Seconds()/float64(max(traced.answered, 1)))/
		(plain.wall.Seconds()/float64(max(plain.answered, 1))))

	// The same mix on a profiled, then a tapped, classic-engine mirror
	// of the deployment: the same identifiers, so the same trees.
	tcpMirrorLayers(o, d.w, p, oneshotMix, "sum(load) group by slice", func(mr *mirror, o *outcome, begin func()) int64 {
		loadWorld(mr, d.w)
		begin()
		rng := rand.New(rand.NewSource(p.seed))
		for range p.sizes.captureOps {
			qi := rng.Intn(len(oneshotMix))
			res, err := mr.query(rng.Intn(len(d.agents)), oneshotMix[qi])
			o.attempted++
			if err != nil {
				o.fail(false, err)
			} else if err := d.w.expect(mustParse(oneshotMix[qi])).check(res); err != nil {
				o.fail(true, fmt.Errorf("mirror %s: %w", oneshotMix[qi], err))
			}
		}
		return int64(p.sizes.captureOps)
	})
	return o, nil
}

// tcpMirrorLayers fills the layers an agent cannot expose from outside
// (handler and timer time, codec, simulator) by running the workload
// on a classic-engine mirror of the deployment, then replays the
// front-end, aggregate and routing steps.
func tcpMirrorLayers(o *outcome, w *world, p params, texts []string, aggQuery string, drive func(mr *mirror, o *outcome, begin func()) int64) {
	prof := &profile{}
	model := simModel{}
	mr := newMirror(w.ids, p.seed, model, prof, nil)
	var start time.Time
	ops := drive(mr, o, func() { prof.reset(); start = time.Now() })
	wall := time.Since(start)
	prof.report(o, ops)
	logical, wire := mr.messages()
	o.add("core.coalesce_ratio", "ratio", float64(wire)/float64(max(logical, 1)))
	o.add("simnet.msgs_per_wall_s", "1/s", float64(mr.net.Counter().Wire)/wall.Seconds())

	cp := newCapture()
	cm := newMirror(w.ids, p.seed, model, nil, cp.tap)
	ops = drive(cm, o, func() { cp.frames, cp.kinds, cp.routeKeys = nil, nil, nil })
	replayCodec(o, cp, ops)
	stores := make([]predicate.Getter, 0, len(mr.nodes))
	for _, nd := range mr.nodes {
		stores = append(stores, nd.Store())
	}
	replayFrontEnd(o, texts, stores)
	replayAggregate(o, w, mustParse(aggQuery))
	replayPastry(o, cm, cp.routeKeys, w.ids)
}

// ---------------------------------------------------------------------
// tcp-standing

// standingForms are the standing queries tcp-standing subscribes, each
// written several ways that normalize to the same stream. %v is the
// period. The sum(q) form is grouped by slice, so each group's
// in-flight writes can be told apart (see keyTrack).
//
// No form has a predicate: over TCP, standing queries on filtered
// (adaptive) group trees deliver warm samples short of one to five
// members in about half the boots, persistently, while one-shot queries
// on the same groups are complete. Those incomplete samples would make
// the run's failure count vary from run to run, so the workload leaves
// filtered standing queries out until that defect is fixed.
var standingForms = [][]string{
	{"sum(q) group by slice every %v", "select sum(q) every %v group by slice", "sum( q ) group by slice every %v"},
	{"count(*) group by slice every %v", "select count(*) group by slice every %v"},
	{"count(*) every %v", "select count(*) every %v"},
	{"sum(load) group by slice every %v", "select sum(load) group by slice every %v"},
	{"max(load) every %v", "select max(load) every %v"},
	{"min(load) group by os every %v", "select min(load) every %v group by os"},
	{"avg(load) group by slice every %v", "avg( load ) group by slice every %v"},
	{"dcount(os) every %v", "countdistinct(os) every %v"},
}

// freshForm is the form whose samples time each write's freshness: it
// sums q over every node, so every write shows in it.
const freshForm = 0

// stWrite is one open-loop write of q.
type stWrite struct {
	delta int64
	due   time.Time
}

// keyTrack follows one (form, group key) of a sum(q) form: the sum all
// samples must include, and the writes that may or may not show yet.
// Writes to one slice group use distinct powers of two, so the part of
// a sample above the confirmed sum names exactly which in-flight writes
// it includes.
type keyTrack struct {
	confirmed int64
	inflight  []*stWrite
	broken    bool
}

type stForm struct {
	req     core.Request
	exp     expected // static forms; for sum(q) forms, members and key set
	tracks  map[string]*keyTrack
	sumQ    bool
	samples int64
}

// standing is a tcp-standing deployment plus its checker.
type standing struct {
	d       *tcpDeploy
	svc     *moara.Service
	subs    []moara.Sub
	forms   []*stForm
	p       params
	subMs   []float64
	members [][]int    // node indexes per slice group
	counter []int      // writes per slice group, for distinct deltas
	mu      sync.Mutex // guards forms' tracks and samples, fresh, o, warm
	fresh   []float64
	o       outcome
	warm    []bool // form delivered a complete warm sample
}

func standingSetup(p params, boot int) (*standing, error) {
	d, err := bootTCP(p.seed, boot, p.sizes.tcpNodes)
	if err != nil {
		return nil, err
	}
	s := &standing{d: d, p: p, svc: moara.NewService(d.agents[0], moara.ServiceOptions{}),
		members: make([][]int, sliceKeys), counter: make([]int, sliceKeys)}
	group := make(map[string]int, sliceKeys)
	for g := range sliceKeys {
		group[sliceName(g)] = g
	}
	for i := range d.w.attrs {
		k, _ := d.w.attrs[i]["slice"].AsString()
		s.members[group[k]] = append(s.members[group[k]], i)
	}
	for _, spellings := range standingForms {
		f := &stForm{req: mustParse(fmt.Sprintf(spellings[0], p.sizes.period)), tracks: make(map[string]*keyTrack)}
		f.exp = d.w.expect(f.req)
		f.sumQ = f.req.Attr == "q"
		for k := range f.exp.groups {
			f.tracks[k] = &keyTrack{}
		}
		s.forms = append(s.forms, f)
		s.warm = append(s.warm, false)
	}
	for i := range p.sizes.standingSubs {
		fi := i % len(standingForms)
		spellings := standingForms[fi]
		text := fmt.Sprintf(spellings[(i/len(standingForms))%len(spellings)], p.sizes.period)
		start := time.Now()
		sub, err := s.svc.Subscribe(context.Background(), text, func(sm core.Sample) { s.observe(fi, time.Now(), sm) })
		s.subMs = append(s.subMs, ms(time.Since(start)))
		if err != nil {
			s.close()
			return nil, fmt.Errorf("subscribe %q: %w", text, err)
		}
		s.subs = append(s.subs, sub)
	}
	if st := s.svc.Stats(); st.LiveStreams != len(standingForms) {
		s.close()
		return nil, fmt.Errorf("tcp-standing: %d live streams for %d forms: spellings did not share", st.LiveStreams, len(standingForms))
	}
	deadline := time.Now().Add(30 * time.Second)
	for !s.allWarm() {
		if time.Now().After(deadline) {
			s.mu.Lock()
			err := fmt.Errorf("tcp-standing: no complete warm sample on every form during warm-up (warm %v, first failure: %s)", s.warm, s.o.firstErr)
			s.mu.Unlock()
			s.close()
			return nil, err
		}
		time.Sleep(10 * time.Millisecond)
	}
	return s, nil
}

func (s *standing) allWarm() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, w := range s.warm {
		if !w {
			return false
		}
	}
	return true
}

func (s *standing) close() {
	for _, sub := range s.subs {
		_ = sub.Unsubscribe() // teardown; the agents close next
	}
	s.d.close()
}

// observe checks one delivered sample. It runs on agent 0's delivery
// goroutine (the service's Buffer is 0), so it only does arithmetic.
func (s *standing) observe(fi int, at time.Time, sm core.Sample) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.forms[fi]
	f.samples++
	if sm.ColdStart {
		return
	}
	s.o.attempted++
	if sm.Contributors != f.exp.members {
		s.o.fail(false, fmt.Errorf("%s: warm sample with %d of %d contributors", f.req.Attr, sm.Contributors, f.exp.members))
		return
	}
	s.warm[fi] = true
	var err error
	if f.sumQ {
		err = s.checkWrites(fi, at, sm.Result)
	} else {
		err = f.exp.check(sm.Result)
	}
	if err != nil {
		s.o.fail(true, fmt.Errorf("form %d: %w", fi, err))
	}
}

// checkWrites accepts a sum(q) sample when each group's sum is the
// confirmed sum plus a subset of that group's in-flight writes, then
// confirms that subset.
func (s *standing) checkWrites(fi int, at time.Time, res core.Result) error {
	f := s.forms[fi]
	if res.Truncated || len(res.Groups) != len(f.tracks) {
		return fmt.Errorf("got %d groups, want %d", len(res.Groups), len(f.tracks))
	}
	for k, tr := range f.tracks {
		if tr.broken {
			continue
		}
		got, ok := res.Groups[k].Value.AsInt()
		if !ok {
			return fmt.Errorf("group %q: value %v", k, res.Groups[k].Value)
		}
		extra := got - tr.confirmed
		var keep []*stWrite
		for _, wr := range tr.inflight {
			if extra&wr.delta != 0 {
				extra &^= wr.delta
				tr.confirmed += wr.delta
				if fi == freshForm {
					s.fresh = append(s.fresh, ms(at.Sub(wr.due)))
				}
				continue
			}
			keep = append(keep, wr)
		}
		tr.inflight = keep
		if extra != 0 {
			tr.broken = true
			return fmt.Errorf("group %q: sum %d is not the confirmed sum plus in-flight writes", k, got)
		}
	}
	return nil
}

// write registers one open-loop write with every sum(q) form it
// affects, then applies it. Writes rotate over the slice groups; each
// adds a power of two unused by that group's recent writes.
func (s *standing) write(t int, due time.Time) (late, lockWait time.Duration) {
	w := s.d.w
	g := t % sliceKeys
	node := s.members[g][(t/sliceKeys)%len(s.members[g])]
	wr := &stWrite{delta: 1 << (s.counter[g] % 48), due: due}
	s.counter[g]++
	s.mu.Lock()
	for _, f := range s.forms {
		if f.sumQ && w.member(node, f.req) {
			tr := f.tracks[w.groupKey(node, f.req.GroupBy)]
			tr.inflight = append(tr.inflight, wr)
		}
	}
	s.mu.Unlock()
	cur, _ := w.attrs[node]["q"].AsInt()
	w.attrs[node]["q"] = value.Int(cur + wr.delta)
	start := time.Now()
	s.d.agents[node].Attrs().Set("q", w.attrs[node]["q"])
	return start.Sub(due), time.Since(start)
}

// standingPhase is what one open-loop phase of tcp-standing measured.
type standingPhase struct {
	fresh, late, lockWait []float64
	epochs                float64
	samples               int64
	wall                  time.Duration
	wire                  transport.Stats
	windows               []window // count: wire messages sent
}

// cpuPerEpoch is the process CPU per epoch in each window, in ms.
func (ph standingPhase) cpuPerEpoch(period time.Duration) []float64 {
	return windowValues(ph.windows, func(secs, cpuMs, _ float64) float64 { return cpuMs / (secs / period.Seconds()) })
}

// phase writes q on a fixed timetable for dur, then waits for the
// freshness form to show every write; a write it never shows fails.
func (s *standing) phase(dur time.Duration) standingPhase {
	var ph standingPhase
	every := s.p.sizes.writeEvery
	s.mu.Lock()
	s.fresh = nil
	samples0 := s.totalSamples()
	s.mu.Unlock()
	w0, start := s.d.wireStats(), time.Now()
	windows := sampleWindows(start.Add(dur), windowOf(dur), func() int64 { return int64(s.d.wireStats().MsgsOut) })
	writes := 0
	for t := 0; ; t++ {
		due := start.Add(time.Duration(t) * every)
		if due.After(start.Add(dur)) {
			break
		}
		time.Sleep(time.Until(due))
		late, lw := s.write(t, due)
		ph.late = append(ph.late, ms(late))
		ph.lockWait = append(ph.lockWait, float64(lw)/float64(time.Microsecond))
		writes++
	}
	ph.wall = time.Since(start)
	ph.windows = windows()
	w1 := s.d.wireStats()
	ph.wire = transport.Stats{MsgsOut: w1.MsgsOut - w0.MsgsOut, BytesOut: w1.BytesOut - w0.BytesOut,
		DecodeErrors: w1.DecodeErrors, Dials: w1.Dials}
	ph.epochs = ph.wall.Seconds() / s.p.sizes.period.Seconds()
	s.mu.Lock()
	ph.samples = s.totalSamples() - samples0
	s.mu.Unlock()
	// Drain: every write must show in the freshness form.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && s.pendingFresh() > 0 {
		time.Sleep(10 * time.Millisecond)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, tr := range s.forms[freshForm].tracks {
		for range tr.inflight {
			s.o.fail(false, fmt.Errorf("a write to group %q never showed in a sample", k))
		}
		tr.inflight = nil
	}
	for _, f := range s.forms {
		for _, tr := range f.tracks {
			tr.inflight = nil
		}
	}
	s.o.attempted += int64(writes)
	ph.fresh = append(ph.fresh, s.fresh...)
	return ph
}

func (s *standing) totalSamples() int64 {
	var n int64
	for _, f := range s.forms {
		n += f.samples
	}
	return n
}

func (s *standing) pendingFresh() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, tr := range s.forms[freshForm].tracks {
		n += len(tr.inflight)
	}
	return n
}

// take moves the checker's tallies into o.
func (s *standing) take(o *outcome) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o.attempted += s.o.attempted
	o.failed += s.o.failed
	o.wrong += s.o.wrong
	if o.firstErr == "" {
		o.firstErr = s.o.firstErr
	}
	s.o = outcome{}
}

// standingMeasured is the untraced tcp-standing run, pooled over its
// set-ups like oneshotMeasured.
func standingMeasured(p params, o *outcome) (*outcome, error) {
	var setups, heaps, fresh, cpus []float64
	var msgs, samples int64
	var epochs, wall float64
	for r := range p.sizes.setups {
		base := liveHeapMB()
		start := time.Now()
		s, err := standingSetup(p, r)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		s.take(&outcome{}) // warm-up samples are not part of the run
		ph := s.phase(p.seconds / time.Duration(p.sizes.setups))
		s.take(o)
		heaps = append(heaps, liveHeapMB()-base)
		s.close()
		fresh = append(fresh, ph.fresh...)
		cpus = append(cpus, ph.cpuPerEpoch(p.sizes.period)...)
		msgs += int64(ph.wire.MsgsOut)
		samples += ph.samples
		epochs += ph.epochs
		wall += ph.wall.Seconds()
	}
	o.add("setup_s", "s", median(setups))
	o.add("p50_ms", "ms", median(fresh))
	o.add("tail_ms", "ms", quantile(fresh, 0.99))
	o.add("ops_per_s", "1/s", float64(samples)/wall)
	o.add("cpu_ms_per_op", "ms", median(cpus))
	o.add("msgs_per_op", "count", float64(msgs)/epochs)
	o.add("live_heap_mb", "MB", median(heaps))
	return o, nil
}

func runTCPStanding(p params) (*outcome, error) {
	o := &outcome{}
	if !p.trace {
		return standingMeasured(p, o)
	}
	s, err := standingSetup(p, 0)
	if err != nil {
		return nil, err
	}
	defer s.close()
	s.take(&outcome{}) // warm-up samples are not part of the run

	half := p.seconds / 2
	rt0 := snapRuntime()
	plain := s.phase(half)
	runtimeMetrics(o, rt0, snapRuntime(), int64(plain.epochs))
	traced := s.phase(half)
	s.take(o)
	transportMetrics(o, traced.wire, int64(traced.epochs), traced.lockWait)
	o.add("transport.subscribe_ms", "ms", median(s.subMs))
	o.add("gen.late_ms_p99", "ms", quantile(traced.late, 0.99))
	st := s.svc.Stats()
	o.add("service.attach_ratio", "ratio", float64(st.Attaches)/float64(max(st.Installs+st.Attaches, 1)))
	o.add("service.live_streams", "count", float64(st.LiveStreams))
	// The writer's timetable fixes the wall time of an epoch, so the
	// overhead of an open loop shows in CPU per epoch.
	o.add("trace.overhead", "ratio", median(traced.cpuPerEpoch(p.sizes.period))/median(plain.cpuPerEpoch(p.sizes.period)))

	texts := make([]string, 0, len(standingForms))
	for _, f := range standingForms {
		texts = append(texts, fmt.Sprintf(f[0], p.sizes.period))
	}
	tcpMirrorLayers(o, s.d.w, p, texts, "sum(q) group by slice", func(mr *mirror, o *outcome, begin func()) int64 {
		loadWorld(mr, s.d.w)
		for _, t := range texts {
			if err := mr.subscribe(0, t, func(core.Sample) {}); err != nil {
				o.fail(false, err)
			}
		}
		mr.runFor(5 * p.sizes.period)
		mr.resetCounter()
		begin()
		epochs := p.sizes.captureOps / 10
		perEpoch := int(p.sizes.period / p.sizes.writeEvery)
		for e := range epochs {
			for k := range perEpoch {
				node := (e*perEpoch + k) % len(mr.nodes)
				cur, _ := mr.nodes[node].Store().Get("q").AsInt()
				mr.setAttr(node, "q", value.Int(cur+1))
			}
			mr.runFor(p.sizes.period)
		}
		return int64(max(epochs, 1))
	})
	return o, nil
}
