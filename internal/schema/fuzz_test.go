package schema

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// randomJSON draws a random decoded-JSON value of bounded depth.
func randomJSON(rng *rand.Rand, depth int) any {
	if depth <= 0 {
		switch rng.Intn(4) {
		case 0:
			return rng.NormFloat64()
		case 1:
			return "s"
		case 2:
			return rng.Intn(2) == 0
		default:
			return nil
		}
	}
	switch rng.Intn(6) {
	case 0:
		m := map[string]any{}
		for i := 0; i < rng.Intn(4); i++ {
			m[string(rune('a'+i))] = randomJSON(rng, depth-1)
		}
		return m
	case 1:
		var a []any
		for i := 0; i < rng.Intn(4); i++ {
			a = append(a, randomJSON(rng, depth-1))
		}
		return a
	default:
		return randomJSON(rng, 0)
	}
}

// randomSchema draws a random schema of bounded depth.
func randomSchema(rng *rand.Rand, depth int) *Schema {
	if depth <= 0 {
		switch rng.Intn(4) {
		case 0:
			return Str("")
		case 1:
			return Num("")
		case 2:
			return Int("")
		default:
			return Bool("")
		}
	}
	switch rng.Intn(4) {
	case 0:
		props := map[string]*Schema{}
		var req []string
		for i := 0; i < rng.Intn(3); i++ {
			name := string(rune('a' + i))
			props[name] = randomSchema(rng, depth-1)
			if rng.Intn(2) == 0 {
				req = append(req, name)
			}
		}
		s := Obj("", props, req...)
		if rng.Intn(2) == 0 {
			s = s.WithExtra()
		}
		return s
	case 1:
		return Arr("", randomSchema(rng, depth-1))
	default:
		return randomSchema(rng, 0)
	}
}

// Property: Validate never panics for any (schema, value) pair — it
// either accepts or returns a descriptive error. The agents feed it
// LLM-generated arguments, so robustness here is a security boundary.
func TestValidateNeverPanicsProperty(t *testing.T) {
	f := func(seed int64) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		rng := rand.New(rand.NewSource(seed))
		s := randomSchema(rng, 3)
		v := randomJSON(rng, 3)
		_ = s.Validate(v)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: a payload accepted by the tool pipeline (ValidateValue =
// normalize, then validate) still validates after any further JSON
// round trips — the storage/persistence stability the session relies on.
//
// Note the pipeline order matters: a nil Go slice passes a raw Validate
// as an array but JSON-normalizes to null; ValidateValue normalizes
// first, so such values are consistently rejected up front.
func TestValidateNormalizeStabilityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSchema(rng, 3)
		v := randomJSON(rng, 3)
		stored, _, err := s.ValidateValue(v)
		if err != nil {
			return true // vacuous: only accepted payloads must be stable
		}
		reloaded, _, err := Normalize(stored)
		if err != nil {
			return false
		}
		return s.Validate(reloaded) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestNilSliceEdgeCase pins the behaviour the stability property exposed:
// nil slices normalize to JSON null and are rejected by array schemas
// through the pipeline, never silently stored.
func TestNilSliceEdgeCase(t *testing.T) {
	s := Arr("", Int(""))
	var nilSlice []any
	if _, _, err := s.ValidateValue(nilSlice); err == nil {
		t.Fatal("nil slice should be rejected by the pipeline (normalizes to null)")
	}
	if _, _, err := s.ValidateValue([]any{}); err != nil {
		t.Fatalf("empty (non-nil) array must pass: %v", err)
	}
}

// bytesIn feeds a fuzz input to the value builders one byte at a time;
// an exhausted input reads as zeros.
type bytesIn struct{ b []byte }

func (in *bytesIn) next() byte {
	if len(in.b) == 0 {
		return 0
	}
	c := in.b[0]
	in.b = in.b[1:]
	return c
}

// str takes a length byte and that many raw bytes, valid UTF-8 or not.
func (in *bytesIn) str() string {
	n := min(int(in.next()%8), len(in.b))
	s := string(in.b[:n])
	in.b = in.b[n:]
	return s
}

// toolFloats and toolInts are the numbers whose encoding is easiest to
// get wrong: −0, the edges of exact float64 integers, subnormals and the
// exponent form json.Marshal switches to.
var (
	toolFloats = []float64{0, math.Copysign(0, -1), 1 << 53, 1<<53 + 2, -(1 << 53), 0.1, 1e21, 1e-7, 5e-324, math.MaxFloat64, -2.5}
	toolInts   = []int{0, -1, 1<<53 + 1, -(1<<53 + 1), 1<<63 - 1, -1 << 63, 1<<53 - 1}
)

type fuzzRecord struct {
	A int       `json:"a"`
	B string    `json:"b,omitempty"`
	C []float64 `json:"c"`
}

// toolValue builds a nested value of the shapes tools return — and a few
// they do not, which Normalize must still round-trip.
func toolValue(in *bytesIn, depth int) any {
	tag := in.next()
	if depth <= 0 {
		tag %= 6
	}
	switch tag % 16 {
	case 0:
		return nil
	case 1:
		return tag&0x10 != 0
	case 2:
		return toolFloats[int(in.next())%len(toolFloats)]
	case 3:
		return toolInts[int(in.next())%len(toolInts)]
	case 4:
		return in.str()
	case 5:
		var bits uint64
		for i := 0; i < 8; i++ {
			bits = bits<<8 | uint64(in.next())
		}
		return math.Float64frombits(bits) // NaN and ±Inf do not encode
	case 6, 7:
		if tag&0x10 != 0 {
			return map[string]any(nil)
		}
		m := map[string]any{}
		for i := int(in.next() % 4); i > 0; i-- {
			m[in.str()] = toolValue(in, depth-1)
		}
		return m
	case 8:
		if tag&0x10 != 0 {
			return []any(nil)
		}
		a := []any{}
		for i := int(in.next() % 4); i > 0; i-- {
			a = append(a, toolValue(in, depth-1))
		}
		return a
	case 9:
		if tag&0x10 != 0 {
			return []map[string]any(nil)
		}
		a := []map[string]any{}
		for i := int(in.next() % 3); i > 0; i-- {
			m, _ := toolValue(in, depth-1).(map[string]any)
			a = append(a, m)
		}
		return a
	case 10:
		if tag&0x10 != 0 {
			return []string(nil)
		}
		a := []string{}
		for i := int(in.next() % 4); i > 0; i-- {
			a = append(a, in.str())
		}
		return a
	case 11:
		return fuzzRecord{A: toolInts[int(in.next())%len(toolInts)], B: in.str(), C: []float64{toolFloats[int(in.next())%len(toolFloats)]}}
	case 12:
		return map[string]string{in.str(): in.str()}
	case 13:
		return []int{int(in.next()), toolInts[int(in.next())%len(toolInts)]}
	case 14:
		return int64(toolInts[int(in.next())%len(toolInts)])
	default:
		return float32(toolFloats[int(in.next())%len(toolFloats)])
	}
}

// identical is reflect.DeepEqual that also tells −0 from +0.
func identical(a, b any) bool {
	switch x := a.(type) {
	case float64:
		y, ok := b.(float64)
		return ok && math.Float64bits(x) == math.Float64bits(y)
	case map[string]any:
		y, ok := b.(map[string]any)
		if !ok || (x == nil) != (y == nil) || len(x) != len(y) {
			return false
		}
		for k, e := range x {
			f, ok := y[k]
			if !ok || !identical(e, f) {
				return false
			}
		}
		return true
	case []any:
		y, ok := b.([]any)
		if !ok || (x == nil) != (y == nil) || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !identical(x[i], y[i]) {
				return false
			}
		}
		return true
	default:
		return reflect.DeepEqual(a, b)
	}
}

// FuzzNormalize: Normalize's bytes are json.Marshal's and its value is
// what json.Unmarshal makes of them, bit for bit, for nested tool shapes
// with invalid UTF-8, −0, ±(2⁵³+1), nil and empty maps and slices, and
// types no tool builds; a value that cannot encode fails both ways.
func FuzzNormalize(f *testing.F) {
	f.Add([]byte{6, 3, 1, 'k', 2, 1, 1, 'i', 3, 2, 1, 'x', 8, 3, 0, 17, 4, 2, 0xff, 'a'})
	f.Fuzz(func(t *testing.T, data []byte) {
		v := toolValue(&bytesIn{data}, 4)
		got, raw, err := Normalize(v)
		want, werr := json.Marshal(v)
		if (err != nil) != (werr != nil) {
			t.Fatalf("Normalize error %v, json.Marshal error %v", err, werr)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(raw, want) {
			t.Fatalf("Normalize bytes %s, json.Marshal %s", raw, want)
		}
		var ref any
		if err := json.Unmarshal(want, &ref); err != nil {
			t.Fatal(err)
		}
		if !identical(got, ref) {
			t.Fatalf("Normalize(%#v) = %#v, JSON round trip %#v", v, got, ref)
		}
	})
}

// fuzzSchema builds a schema from the input: objects over the keys a–d,
// arrays, enums, ranges and an unsupported type.
func fuzzSchema(in *bytesIn, depth int) *Schema {
	tag := in.next()
	if depth <= 0 {
		tag %= 5
	}
	switch tag % 8 {
	case 0:
		s := Str("")
		if tag&0x10 != 0 {
			s.WithEnum("a", "b")
		}
		return s
	case 1, 2:
		s := Num("")
		if tag%8 == 2 {
			s = Int("")
		}
		if tag&0x10 != 0 {
			s.WithRange(-1, float64(in.next()%4))
		}
		return s
	case 3:
		return Bool("")
	case 4:
		return &Schema{Type: "null"}
	case 5, 6:
		props := map[string]*Schema{}
		var req []string
		for i, n := 0, int(in.next()%4); i < n; i++ {
			k := string(rune('a' + i))
			props[k] = fuzzSchema(in, depth-1)
			if in.next()%2 == 0 {
				req = append(req, k)
			}
		}
		s := Obj("", props, req...)
		if tag&0x10 != 0 {
			s.WithExtra()
		}
		return s
	default:
		if tag&0x10 != 0 {
			return Arr("", nil)
		}
		return Arr("", fuzzSchema(in, depth-1))
	}
}

// fuzzJSON builds a decoded-JSON value over the same keys, plus an
// unknown one, native ints and a json.Number.
func fuzzJSON(in *bytesIn, depth int) any {
	tag := in.next()
	if depth <= 0 {
		tag %= 7
	}
	switch tag % 10 {
	case 0:
		return nil
	case 1:
		return tag&0x10 != 0
	case 2:
		return []float64{0.5, -1, 2, 3, 1e300, math.Copysign(0, -1)}[int(in.next())%6]
	case 3:
		return int(in.next()%5) - 1
	case 4:
		return []string{"a", "b", "c", ""}[in.next()%4]
	case 5:
		return json.Number([]string{"1", "2.5", "x"}[in.next()%3])
	case 6:
		return int64(in.next())
	case 7, 8:
		m := map[string]any{}
		for i := int(in.next() % 5); i > 0; i-- {
			m[[]string{"a", "b", "c", "d", "e"}[in.next()%5]] = fuzzJSON(in, depth-1)
		}
		return m
	default:
		a := []any{}
		for i := int(in.next() % 4); i > 0; i-- {
			a = append(a, fuzzJSON(in, depth-1))
		}
		return a
	}
}

// FuzzValidate: Validate's error, or nil, is the path-building
// reference's, for schemas and values built from the same input.
func FuzzValidate(f *testing.F) {
	f.Add([]byte{5, 3, 2, 0, 17, 1, 3, 1, 7, 3, 0, 4, 1, 1, 3, 2, 4, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &bytesIn{data}
		s := fuzzSchema(in, 3)
		v := fuzzJSON(in, 3)
		if got, want := errText(s.Validate(v)), errText(validateRef(s, v, "$")); got != want {
			t.Fatalf("Validate(%#v) = %s, reference %s", v, got, want)
		}
	})
}
