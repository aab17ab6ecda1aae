package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// span is one timed call, recorded by the benchmark around a call into a
// layer. Name is "<module>.<call>"; Parent is the span of the business
// operation the call belongs to (0 for the operation itself); Op
// identifies that operation across all of its spans.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

func (s span) module() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer records spans for one client goroutine, so recording takes no
// lock. A nil *tracer records nothing: the untraced run executes the same
// calls with every span operation reduced to a nil check.
type tracer struct {
	epoch time.Time
	idHi  uint64 // client number in the high bits keeps IDs unique
	seq   uint64
	op    uint64 // current operation's root span ID
	spans []span
}

func newTracer(epoch time.Time, client int) *tracer {
	return &tracer{epoch: epoch, idHi: uint64(client+1) << 48}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// beginOp opens the root span of a business operation.
func (t *tracer) beginOp(name string) int {
	if t == nil {
		return -1
	}
	t.seq++
	id := t.idHi | t.seq
	t.op = id
	t.spans = append(t.spans, span{ID: id, Op: id, Name: name, Start: t.now()})
	return len(t.spans) - 1
}

// begin opens a call span under the current operation.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.seq++
	t.spans = append(t.spans, span{ID: t.idHi | t.seq, Parent: t.op, Op: t.op, Name: name, Start: t.now()})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].End = t.now()
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children. Children may nest or overlap each other (a
// prefetching scan overlaps its consumer); overlapping cover is counted
// once, and cover outside the parent's interval is ignored.
// The result is indexed like spans.
func selfTimes(spans []span) []int64 {
	kids := make(map[uint64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s.Start, s.End, kids[s.ID])
	}
	return self
}

// covered measures the union of intervals clipped to [lo, hi].
func covered(lo, hi int64, iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	c := append([][2]int64(nil), iv...)
	sort.Slice(c, func(i, j int) bool { return c[i][0] < c[j][0] })
	var total int64
	cur := lo // everything before cur is already counted
	for _, x := range c {
		a, b := max(x[0], cur), min(x[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	Name        string
	Count       int
	Total, Self int64 // nanoseconds
}

// layerTable aggregates spans by name and by module (a row named
// "<module>.*"), with self time from selfTimes.
func layerTable(spans []span) []layerRow {
	self := selfTimes(spans)
	byName := map[string]*layerRow{}
	for i, s := range spans {
		r := byName[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			byName[s.Name] = r
		}
		r.Count++
		r.Total += s.dur()
		r.Self += self[i]
	}
	byModule := map[string]*layerRow{}
	out := make([]layerRow, 0, 2*len(byName))
	for _, r := range byName {
		out = append(out, *r)
		name := span{Name: r.Name}.module() + ".*"
		m := byModule[name]
		if m == nil {
			m = &layerRow{Name: name}
			byModule[name] = m
		}
		m.Count += r.Count
		m.Total += r.Total
		m.Self += r.Self
	}
	for _, m := range byModule {
		out = append(out, *m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// writeSpans writes one JSON object per span.
func writeSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func printLayerTable(w io.Writer, rows []layerRow, ops int) {
	fmt.Fprintf(w, "%-34s %9s %12s %12s %12s\n", "span", "count", "total_ms", "self_ms", "self_us/op")
	for _, r := range rows {
		fmt.Fprintf(w, "%-34s %9d %12.1f %12.1f %12.1f\n", r.Name, r.Count,
			float64(r.Total)/1e6, float64(r.Self)/1e6, ratio(float64(r.Self)/1e3, float64(ops)))
	}
}
