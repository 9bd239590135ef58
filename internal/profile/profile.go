// Package profile is the Score-P substitute: a call-path profiler that
// attributes metric values to individual program locations ("regions") and
// their call paths, at the granularity the paper uses to attribute
// communication requirements to MPI call sites.
//
// A Profiler is owned by a single simulated process. After a run, per-rank
// profiles are merged into a single program profile with Merge, and flat
// per-path metric tables are extracted with Flatten.
package profile

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Metric identifies one per-call-path metric. Each node accumulates every
// metric in a fixed slot, so recording a value is an array add rather than
// a map assignment.
type Metric uint8

// The metrics the simulated runtime attributes to call paths.
const (
	Flop Metric = iota
	Loads
	Stores
	BytesSent
	BytesRecv
	NumMetrics
)

// metricNames are the string keys used by the string-keyed readers, by
// Flatten and in the JSON encoding.
var metricNames = [NumMetrics]string{"flop", "loads", "stores", "bytes_sent", "bytes_recv"}

// String returns the metric's name.
func (m Metric) String() string {
	if m >= NumMetrics {
		return fmt.Sprintf("metric(%d)", int(m))
	}
	return metricNames[m]
}

// MetricByName resolves a metric name. An unknown name resolves to
// NumMetrics, which every reader treats as a metric never added.
func MetricByName(name string) (Metric, bool) {
	for i, n := range metricNames {
		if n == name {
			return Metric(i), true
		}
	}
	return NumMetrics, false
}

// Node is one call-path node: a region name in the context of its parent
// chain, with metric accumulators.
type Node struct {
	Name     string
	Visits   int64
	Children []*Node

	vals [NumMetrics]float64
	// set has bit m once metric m has been added, even with a zero value
	// (Barrier's empty payload), so such a metric is still reported.
	set    uint8
	parent *Node
}

// Metric returns the node's exclusive value of m and whether m was ever
// added to the node.
func (n *Node) Metric(m Metric) (float64, bool) {
	if m >= NumMetrics {
		return 0, false
	}
	return n.vals[m], n.set&(1<<m) != 0
}

// value is the exclusive value of m, 0 for an unknown metric.
func (n *Node) value(m Metric) float64 {
	v, _ := n.Metric(m)
	return v
}

// child returns (creating if needed) the child with the given name.
func (n *Node) child(name string) *Node {
	for _, c := range n.Children {
		if c.Name == name {
			return c
		}
	}
	c := &Node{Name: name, parent: n}
	n.Children = append(n.Children, c)
	return c
}

// Profiler records a call tree for one simulated process.
type Profiler struct {
	root    *Node
	current *Node
}

// New returns an empty profiler whose root region is "main".
func New() *Profiler {
	root := &Node{Name: "main", Visits: 1}
	return &Profiler{root: root, current: root}
}

// Enter pushes a region onto the call path.
func (p *Profiler) Enter(region string) {
	p.current = p.current.child(region)
	p.current.Visits++
}

// Exit pops the current region. Exiting the root panics: that is always an
// instrumentation bug in the caller.
func (p *Profiler) Exit(region string) {
	if p.current.parent == nil {
		panic("profile: Exit called on root")
	}
	if p.current.Name != region {
		panic(fmt.Sprintf("profile: Exit(%q) does not match current region %q", region, p.current.Name))
	}
	p.current = p.current.parent
}

// InRegion runs f inside the named region.
func (p *Profiler) InRegion(region string, f func()) {
	p.Enter(region)
	defer p.Exit(region)
	f()
}

// AddMetric accumulates a metric value on the current call path.
func (p *Profiler) AddMetric(m Metric, v float64) {
	c := p.current
	c.vals[m] += v
	c.set |= 1 << m
}

// Root returns the root node of the call tree.
func (p *Profiler) Root() *Node { return p.root }

// Depth returns the current call-path depth (root = 0).
func (p *Profiler) Depth() int {
	d := 0
	for n := p.current; n.parent != nil; n = n.parent {
		d++
	}
	return d
}

// PathMetrics is a flattened call-path row.
type PathMetrics struct {
	Path    string // "main/solver/allreduce"
	Visits  int64
	Metrics map[string]float64 // nil when no metric was added on the path
}

// Flatten returns all call paths with their metrics, sorted by path.
func (p *Profiler) Flatten() []PathMetrics {
	var out []PathMetrics
	var walk func(n *Node, prefix string)
	walk = func(n *Node, prefix string) {
		path := prefix + n.Name
		out = append(out, PathMetrics{Path: path, Visits: n.Visits, Metrics: n.metricMap()})
		for _, c := range n.Children {
			walk(c, path+"/")
		}
	}
	walk(p.root, "")
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// metricMap returns the node's added metrics keyed by name, nil if none.
func (n *Node) metricMap() map[string]float64 {
	if n.set == 0 {
		return nil
	}
	out := make(map[string]float64, NumMetrics)
	for m := Metric(0); m < NumMetrics; m++ {
		if v, ok := n.Metric(m); ok {
			out[metricNames[m]] = v
		}
	}
	return out
}

// MetricTotal returns the sum of the named metric over the whole call tree.
func (p *Profiler) MetricTotal(metric string) float64 {
	m, _ := MetricByName(metric)
	var total float64
	var walk func(n *Node)
	walk = func(n *Node) {
		total += n.value(m)
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(p.root)
	return total
}

// PathMetric returns the value of a metric at an exact call path (using
// "/"-separated region names starting with "main"), or 0 if absent.
func (p *Profiler) PathMetric(path, metric string) float64 {
	parts := strings.Split(path, "/")
	n := p.root
	if len(parts) == 0 || parts[0] != n.Name {
		return 0
	}
	for _, part := range parts[1:] {
		var next *Node
		for _, c := range n.Children {
			if c.Name == part {
				next = c
				break
			}
		}
		if next == nil {
			return 0
		}
		n = next
	}
	m, _ := MetricByName(metric)
	return n.value(m)
}

// Merge adds the call tree of o into p (summing metrics and visits of
// matching paths). Used to aggregate the per-rank profiles of a run.
func (p *Profiler) Merge(o *Profiler) {
	var merge func(dst, src *Node)
	merge = func(dst, src *Node) {
		dst.Visits += src.Visits
		for m := range src.vals {
			dst.vals[m] += src.vals[m]
		}
		dst.set |= src.set
		for _, sc := range src.Children {
			merge(dst.child(sc.Name), sc)
		}
	}
	// Each per-process root starts with Visits == 1, so after merging the
	// root visit count equals the number of merged processes.
	merge(p.root, o.root)
}

// MarshalJSON serializes the call tree.
func (p *Profiler) MarshalJSON() ([]byte, error) { return json.Marshal(p.root) }

// UnmarshalJSON restores a call tree serialized by MarshalJSON. The restored
// profiler's current region is the root.
func (p *Profiler) UnmarshalJSON(data []byte) error {
	var root Node
	if err := json.Unmarshal(data, &root); err != nil {
		return err
	}
	fixParents(&root, nil)
	p.root = &root
	p.current = &root
	return nil
}

func fixParents(n *Node, parent *Node) {
	n.parent = parent
	for _, c := range n.Children {
		fixParents(c, n)
	}
}

// nodeJSON is a node's wire shape: metrics are an object keyed by metric
// name holding only the metrics that were added.
type nodeJSON struct {
	Name     string             `json:"name"`
	Metrics  map[string]float64 `json:"metrics,omitempty"`
	Visits   int64              `json:"visits,omitempty"`
	Children []*Node            `json:"children,omitempty"`
}

// MarshalJSON encodes the subtree rooted at n.
func (n *Node) MarshalJSON() ([]byte, error) {
	return json.Marshal(nodeJSON{Name: n.Name, Metrics: n.metricMap(), Visits: n.Visits, Children: n.Children})
}

// UnmarshalJSON decodes a subtree encoded by MarshalJSON. A metric name
// the profiler does not know is an error.
func (n *Node) UnmarshalJSON(data []byte) error {
	var w nodeJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*n = Node{Name: w.Name, Visits: w.Visits, Children: w.Children}
	for name, v := range w.Metrics {
		m, ok := MetricByName(name)
		if !ok {
			return fmt.Errorf("profile: unknown metric %q", name)
		}
		n.vals[m] = v
		n.set |= 1 << m
	}
	return nil
}
