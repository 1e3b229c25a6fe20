package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"github.com/moara/moara/internal/aggregate"
	"github.com/moara/moara/internal/core"
	"github.com/moara/moara/internal/ids"
	"github.com/moara/moara/internal/pastry"
	"github.com/moara/moara/internal/predicate"
	"github.com/moara/moara/internal/simnet"
	"github.com/moara/moara/internal/transport"
)

// traceKinds are the message kinds the per-layer metrics are broken
// down by (simnet.KindOf labels). Other kinds are counted under "other"
// in totals but get no metric of their own.
var traceKinds = []string{
	"moara.query", "moara.resp", "moara.status", "moara.probe", "moara.install",
	"moara.epoch", "moara.sample", "moara.cancel", "overlay.route",
}

// handleKinds adds the coalesced batch, which a handler receives as one
// wire message.
var handleKinds = append(append([]string{}, traceKinds...), "moara.batch")

var kindIndex = func() map[string]int {
	m := make(map[string]int, len(handleKinds))
	for i, k := range handleKinds {
		m[k] = i
	}
	return m
}()

// profile accumulates handler and timer time from the wrappers below.
// Counters are atomic because the sharded scheduler runs handlers on
// several goroutines.
type profile struct {
	handleNs, handleCount [16]atomic.Int64
	timerNs, timerCount   atomic.Int64
}

func (p *profile) reset() {
	for i := range p.handleNs {
		p.handleNs[i].Store(0)
		p.handleCount[i].Store(0)
	}
	p.timerNs.Store(0)
	p.timerCount.Store(0)
}

func (p *profile) timed(fn func()) func() {
	return func() {
		start := time.Now()
		fn()
		p.timerNs.Add(int64(time.Since(start)))
		p.timerCount.Add(1)
	}
}

// timedHandler wraps core.Node.Handle, timing each wire message by kind.
type timedHandler struct {
	n *core.Node
	p *profile
}

func (h timedHandler) Handle(from ids.ID, m any) {
	k, ok := kindIndex[simnet.KindOf(m)]
	start := time.Now()
	h.n.Handle(from, m)
	if ok {
		h.p.handleNs[k].Add(int64(time.Since(start)))
		h.p.handleCount[k].Add(1)
	}
}

// timedEnv wraps a node's simnet.Env, timing every timer callback. It
// forwards the optional Defer and Arm fast paths that core.NewNode
// type-asserts, so the wrapped node schedules exactly the events the
// bare one would and the run stays identical.
type timedEnv struct {
	simnet.Env
	d interface{ Defer(time.Duration, func()) }
	a interface {
		Arm(time.Duration, func(), *simnet.Timer)
	}
	p *profile
}

func (e *timedEnv) After(d time.Duration, fn func()) func() { return e.Env.After(d, e.p.timed(fn)) }
func (e *timedEnv) Defer(d time.Duration, fn func())        { e.d.Defer(d, e.p.timed(fn)) }
func (e *timedEnv) Arm(d time.Duration, fn func(), t *simnet.Timer) {
	e.a.Arm(d, e.p.timed(fn), t)
}

// report adds the core.handle_* and core.timer_* metrics, per operation.
func (p *profile) report(o *outcome, ops int64) {
	per := float64(max(ops, 1))
	for i, k := range handleKinds {
		n := p.handleCount[i].Load()
		ns := 0.0
		if n > 0 {
			ns = float64(p.handleNs[i].Load()) / float64(n)
		}
		o.add("core.handle_ns."+k, "ns", ns)
		o.add("core.handle_count."+k, "count", float64(n)/per)
	}
	n := p.timerCount.Load()
	ns := 0.0
	if n > 0 {
		ns = float64(p.timerNs.Load()) / float64(n)
	}
	o.add("core.timer_ns", "ns", ns)
	o.add("core.timer_count", "count", float64(n)/per)
}

// capture records, through simnet's Tap, the columnar encoding of every
// message a classic-engine run sends, batch items one by one. Messages
// are encoded at send time because the engine recycles aggregate
// states once they are merged. It also keeps the routed keys.
type capture struct {
	frames    [][]byte
	kinds     []string
	routeKeys []ids.ID
	encErrs   int
}

// newCapture registers the gob fallback's types first: the cold
// messages (queries, routed payloads) encode through it.
func newCapture() *capture {
	transport.RegisterGob()
	return &capture{}
}

func (c *capture) tap(_, _ ids.ID, m any, _ time.Duration) {
	if b, ok := m.(core.BatchMsg); ok {
		for _, it := range b.Unpack() {
			c.add(it)
		}
		return
	}
	c.add(m)
}

func (c *capture) add(m any) {
	if rm, ok := m.(pastry.RouteMsg); ok && !rm.Maint {
		c.routeKeys = append(c.routeKeys, rm.Key)
	}
	b, err := core.AppendMessage(nil, m)
	if err != nil {
		c.encErrs++
		return
	}
	c.frames = append(c.frames, b)
	c.kinds = append(c.kinds, simnet.KindOf(m))
}

// replayCodec decodes and re-encodes the captured messages with
// core.ReadMessage and core.AppendMessage, per kind, and reports the
// core.wire metrics. ops is the number of operations the capture
// covered.
func replayCodec(o *outcome, c *capture, ops int64) {
	if c.encErrs > 0 {
		o.fail(false, fmt.Errorf("%d captured messages did not encode", c.encErrs))
	}
	byKind := make(map[string][][]byte)
	fallback := 0
	for i, f := range c.frames {
		byKind[c.kinds[i]] = append(byKind[c.kinds[i]], f)
		if f[0] == 0 {
			fallback++
		}
	}
	totalNs := 0.0
	for _, k := range traceKinds {
		frames := byKind[k]
		encNs, decNs, bytes := codecKind(frames)
		o.add("core.wire.enc_ns."+k, "ns", encNs)
		o.add("core.wire.dec_ns."+k, "ns", decNs)
		o.add("core.wire.bytes."+k, "bytes", bytes)
		totalNs += (encNs + decNs) * float64(len(frames))
	}
	for k, frames := range byKind {
		if _, listed := kindIndex[k]; !listed {
			encNs, decNs, _ := codecKind(frames)
			totalNs += (encNs + decNs) * float64(len(frames))
		}
	}
	share := 0.0
	if len(c.frames) > 0 {
		share = float64(fallback) / float64(len(c.frames))
	}
	o.add("core.wire.fallback_share", "ratio", share)
	o.add("core.wire.ns_per_op", "ns", totalNs/float64(max(ops, 1)))
}

// codecKind times decoding then re-encoding one kind's frames, repeated
// until about 50ms of work so small kinds are timed as well as big ones.
func codecKind(frames [][]byte) (encNs, decNs, meanBytes float64) {
	if len(frames) == 0 {
		return 0, 0, 0
	}
	msgs := make([]any, len(frames))
	total := 0
	for i, f := range frames {
		m, _, err := core.ReadMessage(f)
		if err != nil {
			panic("perfbench: captured frame does not decode: " + err.Error())
		}
		msgs[i] = m
		total += len(f)
	}
	var dec, enc time.Duration
	n := 0
	var buf []byte
	for dec+enc < 50*time.Millisecond || n == 0 {
		start := time.Now()
		for _, f := range frames {
			if _, _, err := core.ReadMessage(f); err != nil {
				panic("perfbench: captured frame does not decode: " + err.Error())
			}
		}
		dec += time.Since(start)
		start = time.Now()
		for _, m := range msgs {
			var err error
			if buf, err = core.AppendMessage(buf[:0], m); err != nil {
				panic("perfbench: decoded message does not encode: " + err.Error())
			}
		}
		enc += time.Since(start)
		n += len(frames)
	}
	return float64(enc) / float64(n), float64(dec) / float64(n), float64(total) / float64(len(frames))
}

// timePerCall runs fn over items until about 20ms have passed and
// returns the mean time of one call.
func timePerCall(items int, fn func(i int)) float64 {
	if items == 0 {
		return 0
	}
	n := 0
	start := time.Now()
	for time.Since(start) < 20*time.Millisecond || n == 0 {
		for i := range items {
			fn(i)
		}
		n += items
	}
	return float64(time.Since(start)) / float64(n)
}

// sink keeps replayed results alive so the compiler cannot drop calls.
var sink any

// replayFrontEnd times core.ParseRequest, core.NormalizeRequest plus
// core.CanonicalKey, predicate.ToCNF, and Expr.Eval against node
// stores, over the workload's own query texts.
func replayFrontEnd(o *outcome, texts []string, stores []predicate.Getter) {
	reqs := make([]core.Request, len(texts))
	for i, t := range texts {
		reqs[i] = mustParse(t)
	}
	o.add("core.parse_ns", "ns", timePerCall(len(texts), func(i int) {
		r, err := core.ParseRequest(texts[i])
		if err != nil {
			panic(err)
		}
		sink = r
	}))
	o.add("core.normalize_ns", "ns", timePerCall(len(reqs), func(i int) {
		sink = core.CanonicalKey(core.NormalizeRequest(reqs[i]))
	}))
	var preds []predicate.Expr
	for _, r := range reqs {
		if r.Pred != nil {
			preds = append(preds, r.Pred)
		}
	}
	maxClauses := core.Config{}.Defaults().MaxCNFClauses
	o.add("predicate.cnf_ns", "ns", timePerCall(len(preds), func(i int) {
		f, err := predicate.ToCNF(preds[i], maxClauses)
		if err != nil {
			panic(err)
		}
		sink = f
	}))
	hits := 0
	o.add("predicate.eval_ns", "ns", timePerCall(len(preds)*len(stores), func(i int) {
		if preds[i%len(preds)].Eval(stores[i/len(preds)]) {
			hits++
		}
	}))
	sink = hits
}

// replayAggregate folds the workload's per-node contributions for req
// through Spec.New, GroupedState.AddKeyed and Merge: leaves of 16
// nodes each, merged pairwise up to one root, like an in-tree merge.
func replayAggregate(o *outcome, w *world, req core.Request) {
	var members []int
	for i := range w.attrs {
		if w.member(i, req) {
			members = append(members, i)
		}
	}
	const fanout = 16
	var addNs, mergeNs time.Duration
	var adds, keysMerged, merges int64
	var mallocs uint64
	var root *aggregate.GroupedState
	for rep := 0; rep == 0 || addNs+mergeNs < 50*time.Millisecond; rep++ {
		var level []*aggregate.GroupedState
		start := time.Now()
		for lo := 0; lo < len(members); lo += fanout {
			g := aggregate.NewGrouped(req.Spec, defaultGroupCap)
			for _, i := range members[lo:min(lo+fanout, len(members))] {
				g.AddKeyed(w.ids[i], w.groupKey(i, req.GroupBy), w.contribution(i, req.Attr))
				adds++
			}
			level = append(level, g)
		}
		addNs += time.Since(start)
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		start = time.Now()
		for len(level) > 1 {
			next := level[:0:0]
			for i := 0; i < len(level); i += 2 {
				if i+1 < len(level) {
					keysMerged += int64(level[i+1].KeyCount())
					merges++
					if err := level[i].Merge(level[i+1]); err != nil {
						panic(err)
					}
				}
				next = append(next, level[i])
			}
			level = next
		}
		mergeNs += time.Since(start)
		runtime.ReadMemStats(&ms1)
		mallocs += ms1.Mallocs - ms0.Mallocs
		if len(level) == 1 {
			root = level[0]
		}
	}
	o.add("aggregate.add_ns", "ns", float64(addNs)/float64(max(adds, 1)))
	o.add("aggregate.merge_ns_per_key", "ns", float64(mergeNs)/float64(max(keysMerged, 1)))
	o.add("aggregate.merge_allocs", "count", float64(mallocs)/float64(max(merges, 1)))
	size := 0
	if root != nil {
		b, err := aggregate.AppendState(nil, root)
		if err != nil {
			panic(err)
		}
		size = len(b)
	}
	o.add("aggregate.state_bytes", "bytes", float64(size))
}

// replayPastry times pastry.Node.NextHop on the captured routed keys
// from up to 256 nodes spread over the cluster, and walks each route to
// its owner to count hops. Without routed traffic both metrics read 0.
func replayPastry(o *outcome, mr *mirror, keys []ids.ID, nodeIDs []ids.ID) {
	if len(keys) == 0 {
		return
	}
	byID := make(map[ids.ID]int, len(nodeIDs))
	for i, id := range nodeIDs {
		byID[id] = i
	}
	sort.Slice(keys, func(a, b int) bool { return ids.Less(keys[a], keys[b]) })
	uniq := keys[:1]
	for _, k := range keys[1:] {
		if k != uniq[len(uniq)-1] {
			uniq = append(uniq, k)
		}
	}
	n := len(mr.nodes)
	o.add("pastry.nexthop_ns", "ns", timePerCall(len(uniq)*min(n, 256), func(i int) {
		next, _ := mr.nodes[(i/len(uniq)*7919)%n].Overlay().NextHop(uniq[i%len(uniq)])
		sink = next
	}))
	hops, routes := 0, 0
	for r := range min(n, 256) {
		for _, k := range uniq {
			cur := (r * 7919) % n
			for h := 0; h < 64; h++ {
				next, self := mr.nodes[cur].Overlay().NextHop(k)
				if self {
					break
				}
				cur = byID[next]
				hops++
			}
			routes++
		}
	}
	o.add("pastry.hops_per_route", "count", float64(hops)/float64(routes))
}
