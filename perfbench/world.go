package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/moara/moara/internal/aggregate"
	"github.com/moara/moara/internal/core"
	"github.com/moara/moara/internal/ids"
	"github.com/moara/moara/internal/predicate"
	"github.com/moara/moara/internal/value"
)

// sliceKeys is the cardinality of the Zipf-distributed `slice` group-by
// attribute.
const sliceKeys = 16

// world is the load generator's own copy of every node's attributes,
// plus each node's overlay identifier. It is the oracle: an expected
// answer folds these values through aggregate's public Spec and
// GroupedState exactly as core folds them in-tree, so answers compare
// exactly. Every attribute is an integer, a string or a boolean: float
// sums would depend on the merge order, which varies over TCP.
type world struct {
	ids   []ids.ID
	attrs []map[string]value.Value
}

// newWorld draws every node's attributes from seed. Group sizes are
// fixed fractions of n, so seeds change which nodes are in a group (and
// so the trees), not how big the groups are:
//   - load: a permutation of 0..n-1, so min/max never tie and their
//     winning node is unique;
//   - slice: 16 keys with Zipf(s=1.3) shares, each key used;
//   - small (3%) and mid (15%) are disjoint boolean groups, large (50%)
//     is drawn independently of them;
//   - os: one of six strings, in equal shares (dcount);
//   - q: 0, the attribute the standing workload writes;
//   - rack (when racks > 0): racks keys in equal shares.
func newWorld(seed int64, nodeIDs []ids.ID, racks int) *world {
	rng := rand.New(rand.NewSource(seed))
	n := len(nodeIDs)
	loads, groups, larges, slices, others := rng.Perm(n), rng.Perm(n), rng.Perm(n), rng.Perm(n), rng.Perm(n)
	nSmall, nMid := max(1, n*3/100), max(1, n*15/100)
	sliceOf := make([]int, n)
	k := 0
	for key, c := range zipfCounts(n) {
		for range c {
			sliceOf[slices[k]] = key
			k++
		}
	}
	osNames := []string{"linux-5", "linux-6", "freebsd", "illumos", "windows", "plan9"}
	w := &world{ids: nodeIDs, attrs: make([]map[string]value.Value, n)}
	for i := range n {
		a := map[string]value.Value{
			"load":  value.Int(int64(loads[i])),
			"slice": value.Str(sliceName(sliceOf[i])),
			"small": value.Bool(groups[i] < nSmall),
			"mid":   value.Bool(groups[i] >= nSmall && groups[i] < nSmall+nMid),
			"large": value.Bool(larges[i] < n/2),
			"os":    value.Str(osNames[others[i]%len(osNames)]),
			"q":     value.Int(0),
		}
		if racks > 0 {
			a["rack"] = value.Str(fmt.Sprintf("r%04d", others[i]%racks))
		}
		w.attrs[i] = a
	}
	return w
}

// zipfCounts splits n nodes over the slice keys: one node per key
// first (when n allows), the rest in Zipf(s=1.3) shares, remainders to
// the most popular keys.
func zipfCounts(n int) []int {
	weights := make([]float64, sliceKeys)
	total := 0.0
	for k := range weights {
		weights[k] = math.Pow(float64(k+1), -1.3)
		total += weights[k]
	}
	counts := make([]int, sliceKeys)
	left := n
	for k := range counts {
		if left > 0 {
			counts[k] = 1
			left--
		}
	}
	rest := left
	for k := range counts {
		c := int(float64(rest) * weights[k] / total)
		counts[k] += c
		left -= c
	}
	for k := 0; left > 0; k = (k + 1) % sliceKeys {
		counts[k]++
		left--
	}
	return counts
}

func sliceName(i int) string { return fmt.Sprintf("s%02d", i) }

// names lists a node's attribute names in a fixed order, so that
// loading them into a node is deterministic.
func (w *world) names(i int) []string {
	out := make([]string, 0, len(w.attrs[i]))
	for k := range w.attrs[i] {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// getter exposes node i's attributes to predicate evaluation.
func (w *world) getter(i int) predicate.Getter {
	return predicate.GetterFunc(func(name string) value.Value { return w.attrs[i][name] })
}

// member reports whether node i satisfies the request's predicate.
func (w *world) member(i int, req core.Request) bool {
	return req.Pred == nil || req.Pred.Eval(w.getter(i))
}

// expected is an oracle answer.
type expected struct {
	agg     aggregate.Result
	groups  map[string]aggregate.Result // nil for scalar requests
	members int64                       // nodes satisfying the predicate
}

// defaultGroupCap is core's default MaxGroupKeys: the oracle spills
// exactly where the engine would.
var defaultGroupCap = core.Config{}.Defaults().MaxGroupKeys

// expect folds every member's contribution the way core does: "*"
// contributes Int(1) (node.go localValue), the group key is the
// group-by attribute's Key() (node.go groupKey).
func (w *world) expect(req core.Request) expected {
	g := aggregate.NewGrouped(req.Spec, defaultGroupCap)
	var members int64
	for i := range w.attrs {
		if !w.member(i, req) {
			continue
		}
		members++
		g.AddKeyed(w.ids[i], w.groupKey(i, req.GroupBy), w.contribution(i, req.Attr))
	}
	exp := expected{agg: g.Result(), members: members}
	if req.GroupBy != "" {
		exp.groups = g.Results()
	}
	return exp
}

func (w *world) contribution(i int, attr string) value.Value {
	if attr == "*" {
		return value.Int(1)
	}
	return w.attrs[i][attr]
}

func (w *world) groupKey(i int, groupBy string) string {
	if groupBy == "" {
		return aggregate.ScalarKey
	}
	v := w.attrs[i][groupBy]
	if !v.IsValid() {
		return aggregate.NullKey
	}
	k := v.Key()
	if k == aggregate.NullKey || k == aggregate.OtherKey {
		return `\` + k
	}
	return k
}

// check compares an answer with the oracle exactly: the aggregate, and
// for grouped requests every key's answer and the key set itself.
func (e expected) check(res core.Result) error {
	if res.Truncated {
		return fmt.Errorf("answer truncated")
	}
	if err := sameResult(res.Agg, e.agg); err != nil {
		return fmt.Errorf("aggregate: %w", err)
	}
	if e.groups == nil {
		return nil
	}
	if len(res.Groups) != len(e.groups) {
		return fmt.Errorf("got %d group keys, want %d", len(res.Groups), len(e.groups))
	}
	for k, want := range e.groups {
		got, ok := res.Groups[k]
		if !ok {
			return fmt.Errorf("group %q missing", k)
		}
		if err := sameResult(got, want); err != nil {
			return fmt.Errorf("group %q: %w", k, err)
		}
	}
	return nil
}

func sameValue(a, b value.Value) bool {
	if !a.IsValid() || !b.IsValid() {
		return a.IsValid() == b.IsValid()
	}
	return a.Kind() == b.Kind() && value.Equal(a, b)
}

func sameResult(got, want aggregate.Result) error {
	if !sameValue(got.Value, want.Value) {
		return fmt.Errorf("value %v, want %v", got.Value, want.Value)
	}
	if len(got.Entries) != len(want.Entries) || len(got.Counts) != len(want.Counts) {
		return fmt.Errorf("result %v, want %v", got, want)
	}
	for i := range got.Entries {
		if got.Entries[i].Node != want.Entries[i].Node || !sameValue(got.Entries[i].Value, want.Entries[i].Value) {
			return fmt.Errorf("entries %v, want %v", got, want)
		}
	}
	for i := range got.Counts {
		if got.Counts[i] != want.Counts[i] {
			return fmt.Errorf("counts %v, want %v", got, want)
		}
	}
	return nil
}

// mustParse parses the benchmark's own query texts; a failure is a bug
// in the benchmark.
func mustParse(text string) core.Request {
	req, err := core.ParseRequest(text)
	if err != nil {
		panic(fmt.Sprintf("perfbench: query %q: %v", text, err))
	}
	return req
}
