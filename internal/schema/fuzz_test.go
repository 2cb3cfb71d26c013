package schema

import (
	"math/rand"
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
