package coordinator

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"globaldb/internal/storage/mvcc"
)

// pagesCursor feeds canned pages through a ScanCursor, standing in for a
// data node.
func pagesCursor(pages [][]mvcc.KV) *ScanCursor {
	i := 0
	return newScanCursor(context.Background(), nil, 0, 0, 0, nil, func(context.Context, []byte, int, int) ([]mvcc.KV, []byte, bool, error) {
		p := pages[i]
		i++
		return p, nil, i < len(pages), nil
	})
}

func kv(key string) mvcc.KV { return mvcc.KV{Key: []byte(key), Value: []byte("v" + key)} }

// TestMergedBatchOrder pins the batch faces of the scan pipeline: a
// ScanCursor hands each page upward as one batch and ends cleanly, and a
// merged stream over interleaving shard cursors yields the global key
// order.
func TestMergedBatchOrder(t *testing.T) {
	ctx := context.Background()

	c := pagesCursor([][]mvcc.KV{{kv("a"), kv("b"), kv("c")}, {}, {kv("d")}})
	if !c.NextBatch(ctx) || len(c.Batch()) != 3 || string(c.Batch()[0].Key) != "a" {
		t.Fatalf("first batch = %v", c.Batch())
	}
	if !c.NextBatch(ctx) || len(c.Batch()) != 1 || string(c.Batch()[0].Key) != "d" {
		t.Fatalf("second batch skips the empty page: got %v", c.Batch())
	}
	if c.NextBatch(ctx) || c.Err() != nil {
		t.Fatalf("expected clean end, err=%v", c.Err())
	}

	merged := MergeCursors(
		pagesCursor([][]mvcc.KV{{kv("a"), kv("c"), kv("e")}}),
		pagesCursor([][]mvcc.KV{{kv("b"), kv("d")}, {kv("f")}}),
	)
	var got []string
	for merged.NextBatch(ctx) {
		for _, kv := range merged.Batch() {
			got = append(got, string(kv.Key))
		}
	}
	if merged.Err() != nil {
		t.Fatal(merged.Err())
	}
	want := []string{"a", "b", "c", "d", "e", "f"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("merged batches = %v, want %v", got, want)
	}
}

// TestAggMergeAcrossBatches pins two AggMergeCursor properties: a group
// spanning a child batch boundary merges into one output pair, and the
// pending group's bytes are cloned before the child refills (so a child
// that recycles its page buffer cannot corrupt the group being
// assembled).
func TestAggMergeAcrossBatches(t *testing.T) {
	ctx := context.Background()
	// Child recycles one backing buffer across batches, as the BatchCursor
	// contract permits.
	buf := make([]mvcc.KV, 2)
	batches := [][2]string{{"g1", "g2"}, {"g2", "g3"}}
	i := 0
	child := newScanCursor(context.Background(), nil, 0, 0, 0, nil, func(context.Context, []byte, int, int) ([]mvcc.KV, []byte, bool, error) {
		b := batches[i]
		i++
		buf[0] = mvcc.KV{Key: []byte(b[0]), Value: []byte{1}}
		buf[1] = mvcc.KV{Key: []byte(b[1]), Value: []byte{1}}
		return buf, nil, i < len(batches), nil
	})
	m := MergeAggregates(child, func(a, b []byte) ([]byte, error) {
		return []byte{a[0] + b[0]}, nil
	})
	var keys []string
	var counts []int
	for m.NextBatch(ctx) {
		for _, kv := range m.Batch() {
			keys = append(keys, string(kv.Key))
			counts = append(counts, int(kv.Value[0]))
		}
	}
	if m.Err() != nil {
		t.Fatal(m.Err())
	}
	if fmt.Sprint(keys) != "[g1 g2 g3]" || fmt.Sprint(counts) != "[1 2 1]" {
		t.Fatalf("merged groups %v counts %v, want [g1 g2 g3] [1 2 1]", keys, counts)
	}
	if !bytes.Equal([]byte("g2"), []byte(keys[1])) {
		t.Fatalf("boundary group key corrupted: %q", keys[1])
	}
}
