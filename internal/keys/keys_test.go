package keys

import (
	"bytes"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func encInt(v int64) []byte     { return NewEncoder(16).Int64(v).Bytes() }
func encUint(v uint64) []byte   { return NewEncoder(16).Uint64(v).Bytes() }
func encFloat(v float64) []byte { return NewEncoder(16).Float64(v).Bytes() }
func encString(s string) []byte { return NewEncoder(16).String(s).Bytes() }
func encBytes(b []byte) []byte  { return NewEncoder(16).RawBytes(b).Bytes() }

func TestInt64RoundTrip(t *testing.T) {
	for _, v := range []int64{math.MinInt64, -1e12, -1, 0, 1, 42, 1e12, math.MaxInt64} {
		got, err := NewDecoder(encInt(v)).Int64()
		if err != nil {
			t.Fatalf("decode %d: %v", v, err)
		}
		if got != v {
			t.Fatalf("round trip %d: got %d", v, got)
		}
	}
}

func TestInt64OrderProperty(t *testing.T) {
	f := func(a, b int64) bool {
		cmp := bytes.Compare(encInt(a), encInt(b))
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		default:
			return cmp == 0
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestUint64OrderProperty(t *testing.T) {
	f := func(a, b uint64) bool {
		cmp := bytes.Compare(encUint(a), encUint(b))
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		default:
			return cmp == 0
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestFloat64OrderProperty(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true // NaN has no numeric order; encoding is still total
		}
		cmp := bytes.Compare(encFloat(a), encFloat(b))
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		default:
			return cmp == 0 // equal values, -0 and +0 included, encode equally
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestFloat64Specials(t *testing.T) {
	vals := []float64{math.Inf(-1), -math.MaxFloat64, -1, -math.SmallestNonzeroFloat64, 0, math.SmallestNonzeroFloat64, 1, math.MaxFloat64, math.Inf(1)}
	for i := 1; i < len(vals); i++ {
		if bytes.Compare(encFloat(vals[i-1]), encFloat(vals[i])) >= 0 {
			t.Fatalf("%g must sort before %g", vals[i-1], vals[i])
		}
	}
	for _, v := range vals {
		got, err := NewDecoder(encFloat(v)).Float64()
		if err != nil || got != v {
			t.Fatalf("round trip %g: got %g err %v", v, got, err)
		}
	}
}

// TestFloat64CanonicalZeroAndNaN pins the encoding as the definition of
// float equality: -0 encodes (and decodes) as +0, and every NaN payload
// encodes as one key that sorts below -Inf.
func TestFloat64CanonicalZeroAndNaN(t *testing.T) {
	negZero := math.Copysign(0, -1)
	if !bytes.Equal(encFloat(negZero), encFloat(0)) {
		t.Fatalf("-0 encodes as %x, +0 as %x", encFloat(negZero), encFloat(0))
	}
	if got, err := NewDecoder(encFloat(negZero)).Float64(); err != nil || math.Signbit(got) {
		t.Fatalf("-0 decodes as %g (signbit %v), err %v", got, math.Signbit(got), err)
	}
	nans := []float64{math.NaN(), -math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8000000000123)}
	for _, n := range nans[1:] {
		if !bytes.Equal(encFloat(n), encFloat(nans[0])) {
			t.Fatalf("NaN %x encodes as %x, want %x", math.Float64bits(n), encFloat(n), encFloat(nans[0]))
		}
	}
	if bytes.Compare(encFloat(math.NaN()), encFloat(math.Inf(-1))) >= 0 {
		t.Fatal("NaN must sort before -Inf")
	}
	if got, err := NewDecoder(encFloat(math.NaN())).Float64(); err != nil || !math.IsNaN(got) {
		t.Fatalf("NaN decodes as %g, err %v", got, err)
	}
}

func TestStringOrderProperty(t *testing.T) {
	f := func(a, b string) bool {
		cmp := bytes.Compare(encString(a), encString(b))
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		default:
			return cmp == 0
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestStringRoundTripProperty(t *testing.T) {
	f := func(s string) bool {
		got, err := NewDecoder(encString(s)).String()
		return err == nil && got == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestBytesWithZeros(t *testing.T) {
	in := []byte{0x00, 0xFF, 0x00, 0x00, 0x01, 0x00}
	got, err := NewDecoder(encBytes(in)).RawBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, in) {
		t.Fatalf("round trip: got %x want %x", got, in)
	}
}

func TestBytesOrderProperty(t *testing.T) {
	f := func(a, b []byte) bool {
		cmp := bytes.Compare(encBytes(a), encBytes(b))
		return sign(cmp) == sign(bytes.Compare(a, b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

func TestPrefixIsNotAmbiguous(t *testing.T) {
	// "a" must sort before "ab", and the encoding of "a" must not be a
	// prefix-ordering hazard for composite keys: ("a", 2) < ("ab", 1).
	k1 := NewEncoder(0).String("a").Int64(2).Bytes()
	k2 := NewEncoder(0).String("ab").Int64(1).Bytes()
	if bytes.Compare(k1, k2) >= 0 {
		t.Fatal(`("a",2) must sort before ("ab",1)`)
	}
}

func TestCompositeOrdering(t *testing.T) {
	type row struct {
		w int64
		d int64
		s string
	}
	rows := []row{
		{2, 1, "b"}, {1, 2, "a"}, {1, 1, "z"}, {1, 1, "a"}, {2, 0, ""}, {-1, 5, "m"},
	}
	enc := func(r row) []byte {
		return NewEncoder(0).Int64(r.w).Int64(r.d).String(r.s).Bytes()
	}
	encoded := make([][]byte, len(rows))
	for i, r := range rows {
		encoded[i] = enc(r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].w != rows[j].w {
			return rows[i].w < rows[j].w
		}
		if rows[i].d != rows[j].d {
			return rows[i].d < rows[j].d
		}
		return rows[i].s < rows[j].s
	})
	sort.Slice(encoded, func(i, j int) bool { return bytes.Compare(encoded[i], encoded[j]) < 0 })
	for i := range rows {
		if !bytes.Equal(encoded[i], enc(rows[i])) {
			t.Fatalf("composite order diverges at %d", i)
		}
	}
}

func TestNullSortsFirst(t *testing.T) {
	null := NewEncoder(0).Null().Bytes()
	for _, other := range [][]byte{encInt(math.MinInt64), encString(""), encFloat(math.Inf(-1))} {
		if bytes.Compare(null, other) >= 0 {
			t.Fatalf("NULL must sort before %x", other)
		}
	}
	d := NewDecoder(null)
	if !d.IsNull() {
		t.Fatal("IsNull must consume the marker")
	}
	if d.Remaining() != 0 {
		t.Fatal("marker must be fully consumed")
	}
}

func TestBoolRoundTripAndOrder(t *testing.T) {
	fEnc := NewEncoder(0).Bool(false).Bytes()
	tEnc := NewEncoder(0).Bool(true).Bytes()
	if bytes.Compare(fEnc, tEnc) >= 0 {
		t.Fatal("false must sort before true")
	}
	for _, v := range []bool{true, false} {
		got, err := NewDecoder(NewEncoder(0).Bool(v).Bytes()).Bool()
		if err != nil || got != v {
			t.Fatalf("bool round trip %v: got %v err %v", v, got, err)
		}
	}
}

func TestDecodeWrongTag(t *testing.T) {
	if _, err := NewDecoder(encString("x")).Int64(); err == nil {
		t.Fatal("decoding a string as int must fail")
	}
	if _, err := NewDecoder(nil).Uint64(); err == nil {
		t.Fatal("decoding empty input must fail")
	}
}

func TestDecodeTruncated(t *testing.T) {
	full := encInt(123456)
	for i := 1; i < len(full); i++ {
		if _, err := NewDecoder(full[:i]).Int64(); err == nil {
			t.Fatalf("truncated input of %d bytes must fail", i)
		}
	}
	s := encString("hello")
	for i := 1; i < len(s)-1; i++ {
		if _, err := NewDecoder(s[:i]).String(); err == nil {
			t.Fatalf("truncated string of %d bytes must fail", i)
		}
	}
}

func TestPrefixEnd(t *testing.T) {
	cases := []struct{ in, want []byte }{
		{[]byte{0x01}, []byte{0x02}},
		{[]byte{0x01, 0xFF}, []byte{0x02}},
		{[]byte{0xFF, 0xFF}, nil},
		{[]byte{0xAB, 0x00}, []byte{0xAB, 0x01}},
	}
	for _, c := range cases {
		got := PrefixEnd(c.in)
		if !bytes.Equal(got, c.want) {
			t.Errorf("PrefixEnd(%x) = %x, want %x", c.in, got, c.want)
		}
	}
}

func TestPrefixEndProperty(t *testing.T) {
	// Every key that starts with prefix p is < PrefixEnd(p), and PrefixEnd
	// itself does not start with p.
	f := func(p, suffix []byte) bool {
		if len(p) == 0 {
			return true
		}
		end := PrefixEnd(p)
		if end == nil {
			return true // all-0xFF prefix: unbounded scan
		}
		k := append(bytes.Clone(p), suffix...)
		return bytes.Compare(k, end) < 0 && !bytes.HasPrefix(end, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestMultiElementDecode(t *testing.T) {
	k := NewEncoder(0).Int64(7).String("abc").Float64(2.5).Bool(true).Uint64(9).Bytes()
	d := NewDecoder(k)
	if v, err := d.Int64(); err != nil || v != 7 {
		t.Fatalf("int: %d %v", v, err)
	}
	if s, err := d.String(); err != nil || s != "abc" {
		t.Fatalf("string: %q %v", s, err)
	}
	if f, err := d.Float64(); err != nil || f != 2.5 {
		t.Fatalf("float: %g %v", f, err)
	}
	if b, err := d.Bool(); err != nil || !b {
		t.Fatalf("bool: %v %v", b, err)
	}
	if u, err := d.Uint64(); err != nil || u != 9 {
		t.Fatalf("uint: %d %v", u, err)
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d stray bytes", d.Remaining())
	}
}
