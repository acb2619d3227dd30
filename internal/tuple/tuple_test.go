package tuple

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestSchemaLayout(t *testing.T) {
	s := NewSchema("emp", 100, Field{"tid"}, Field{"skey"}, Field{"salary"})
	if s.Name() != "emp" || s.Width() != 100 || s.NumFields() != 3 {
		t.Fatalf("schema basics wrong: %v %v %v", s.Name(), s.Width(), s.NumFields())
	}
	if s.FieldIndex("skey") != 1 || s.FieldIndex("nope") != -1 {
		t.Fatal("FieldIndex wrong")
	}
	if s.FieldName(2) != "salary" {
		t.Fatal("FieldName wrong")
	}
	// Width is the model's S and sets the blocking factor; a tuple holds
	// only its attributes.
	if s.Size() != 24 || s.PerPage(4000) != 40 {
		t.Fatalf("Size %d, PerPage(4000) %d, want 24 and 40", s.Size(), s.PerPage(4000))
	}
	tup := s.New()
	if len(tup) != 24 {
		t.Fatalf("New() length %d", len(tup))
	}
	s.Set(tup, 0, 7)
	s.SetByName(tup, "skey", -42)
	s.Set(tup, 2, 1<<40)
	if s.Get(tup, 0) != 7 || s.GetByName(tup, "skey") != -42 || s.Get(tup, 2) != 1<<40 {
		t.Fatalf("round trip failed: %s", s.String(tup))
	}
	if got := s.String(tup); !strings.Contains(got, "skey=-42") || !strings.HasPrefix(got, "emp(") {
		t.Fatalf("String = %q", got)
	}
}

func TestSchemaPanics(t *testing.T) {
	s := NewSchema("r", 16, Field{"a"}, Field{"b"})
	for name, fn := range map[string]func(){
		"width too small":     func() { NewSchema("x", 8, Field{"a"}, Field{"b"}) },
		"no fields":           func() { NewSchema("x", 8) },
		"duplicate field":     func() { NewSchema("x", 32, Field{"a"}, Field{"a"}) },
		"empty name":          func() { NewSchema("x", 32, Field{""}) },
		"wrong tuple width":   func() { s.Get(make([]byte, 8), 0) },
		"padded tuple":        func() { NewSchema("p", 100, Field{"a"}).Get(make([]byte, 100), 0) },
		"field out of range":  func() { s.Get(s.New(), 2) },
		"negative field":      func() { s.Set(s.New(), -1, 0) },
		"unknown byname":      func() { s.GetByName(s.New(), "zzz") },
		"MustFieldIndex miss": func() { s.MustFieldIndex("zzz") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestClusterKeyOrdering(t *testing.T) {
	// Keys order by value first, id second.
	f := func(v1, v2, id1, id2 uint32) bool {
		k1 := ClusterKey(int64(v1), int64(id1))
		k2 := ClusterKey(int64(v2), int64(id2))
		switch {
		case v1 < v2:
			return k1 < k2
		case v1 > v2:
			return k1 > k2
		default:
			return (id1 < id2) == (k1 < k2) && (id1 == id2) == (k1 == k2)
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClusterKeyRoundTrip(t *testing.T) {
	f := func(v, id uint32) bool {
		k := ClusterKey(int64(v), int64(id))
		return ClusterKeyValue(k) == int64(v) && ClusterKeyID(k) == int64(id)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClusterKeyBounds(t *testing.T) {
	lo, hi := MinKeyFor(5), MaxKeyFor(5)
	if lo > hi {
		t.Fatal("MinKeyFor > MaxKeyFor")
	}
	if ClusterKeyValue(lo) != 5 || ClusterKeyValue(hi) != 5 {
		t.Fatal("bounds have wrong value part")
	}
	// Every key with value 5 lies within [lo, hi]; value 6 lies above.
	if k := ClusterKey(5, 12345); k < lo || k > hi {
		t.Fatal("key escaped its value bounds")
	}
	if k := ClusterKey(6, 0); k <= hi {
		t.Fatal("next value's key not above MaxKeyFor")
	}
}

func TestClusterKeyPanics(t *testing.T) {
	for _, pair := range [][2]int64{{-1, 0}, {0, -1}, {1 << 33, 0}, {0, 1 << 33}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ClusterKey(%d, %d) should panic", pair[0], pair[1])
				}
			}()
			ClusterKey(pair[0], pair[1])
		}()
	}
}
