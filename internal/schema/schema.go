// Package schema provides a small JSON-schema dialect with strict
// validation. It is GridMind's substitute for the Pydantic layer the
// paper builds on: every tool input and output is validated against an
// explicit schema before an agent may act on it, so malformed payloads
// trigger recovery paths instead of silently corrupting downstream
// reasoning (§3.3 "Data Models and Type Safety").
package schema

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Type enumerates the supported JSON types.
type Type string

// Supported schema types.
const (
	Object  Type = "object"
	Array   Type = "array"
	String  Type = "string"
	Number  Type = "number"
	Integer Type = "integer"
	Boolean Type = "boolean"
)

// Schema describes one JSON value. Schemas compose recursively through
// Properties and Items.
type Schema struct {
	Type        Type               `json:"type"`
	Description string             `json:"description,omitempty"`
	Properties  map[string]*Schema `json:"properties,omitempty"`
	Required    []string           `json:"required,omitempty"`
	Items       *Schema            `json:"items,omitempty"`
	Enum        []string           `json:"enum,omitempty"`
	Minimum     *float64           `json:"minimum,omitempty"`
	Maximum     *float64           `json:"maximum,omitempty"`
	// AllowExtra permits object keys beyond Properties. The default is
	// strict: unknown keys are validation errors, which catches agent
	// hallucinated arguments early.
	AllowExtra bool `json:"allow_extra,omitempty"`
}

// Obj builds an object schema.
func Obj(desc string, props map[string]*Schema, required ...string) *Schema {
	return &Schema{Type: Object, Description: desc, Properties: props, Required: required}
}

// Str builds a string schema.
func Str(desc string) *Schema { return &Schema{Type: String, Description: desc} }

// Num builds a number schema.
func Num(desc string) *Schema { return &Schema{Type: Number, Description: desc} }

// Int builds an integer schema.
func Int(desc string) *Schema { return &Schema{Type: Integer, Description: desc} }

// Bool builds a boolean schema.
func Bool(desc string) *Schema { return &Schema{Type: Boolean, Description: desc} }

// Arr builds an array schema.
func Arr(desc string, items *Schema) *Schema {
	return &Schema{Type: Array, Description: desc, Items: items}
}

// WithEnum restricts a string schema to the given values.
func (s *Schema) WithEnum(vals ...string) *Schema {
	s.Enum = vals
	return s
}

// WithRange bounds a numeric schema inclusively.
func (s *Schema) WithRange(min, max float64) *Schema {
	s.Minimum, s.Maximum = &min, &max
	return s
}

// WithExtra allows unknown object keys.
func (s *Schema) WithExtra() *Schema {
	s.AllowExtra = true
	return s
}

// Validate checks a decoded JSON value (map[string]any / []any / string /
// float64 / bool / nil, plus native Go ints) against the schema. A valid
// value costs one walk that sorts no keys and builds no path. An invalid
// one is reported by its first error in sorted-key order: of an object's
// failing fields, the one whose key sorts first (after any missing
// required field, in Required order), and of an array's items the
// lowest index, as "schema: <path>: <what>" with the path from "$".
func (s *Schema) Validate(v any) error {
	f := s.check(v)
	if f == nil {
		return nil
	}
	var b strings.Builder
	b.WriteString("schema: $")
	for i := len(f.segs) - 1; i >= 0; i-- {
		b.WriteString(f.segs[i])
	}
	b.WriteString(": ")
	b.WriteString(f.msg)
	return errors.New(b.String())
}

// fault is a validation failure. Its path is built only once the value
// has failed: each enclosing object or array appends its segment (".key"
// or "[i]") as the walk returns, so segs runs innermost first.
type fault struct {
	segs []string
	msg  string
}

func faultf(format string, args ...any) *fault {
	return &fault{msg: fmt.Sprintf(format, args...)}
}

func typeFault(want string, got any) *fault {
	return faultf("expected %s, got %T", want, got)
}

func (s *Schema) check(v any) *fault {
	switch s.Type {
	case Object:
		m, ok := v.(map[string]any)
		if !ok {
			return typeFault("object", v)
		}
		for _, req := range s.Required {
			if _, present := m[req]; !present {
				return faultf("missing required field %q", req)
			}
		}
		// Walk in map order; once a field has failed, only a key that
		// sorts before it can hold the first error. An unknown field is
		// reported at the object's path, a field that fails its schema at
		// its own.
		var first *fault
		var firstKey string
		var inField bool
		for k, e := range m {
			if first != nil && k > firstKey {
				continue
			}
			if sub, known := s.Properties[k]; known {
				if f := sub.check(e); f != nil {
					first, firstKey, inField = f, k, true
				}
			} else if !s.AllowExtra {
				first, firstKey, inField = faultf("unknown field %q", k), k, false
			}
		}
		if inField {
			first.segs = append(first.segs, "."+firstKey)
		}
		return first
	case Array:
		a, ok := v.([]any)
		if !ok {
			return typeFault("array", v)
		}
		if s.Items != nil {
			for i, item := range a {
				if f := s.Items.check(item); f != nil {
					f.segs = append(f.segs, "["+strconv.Itoa(i)+"]")
					return f
				}
			}
		}
		return nil
	case String:
		str, ok := v.(string)
		if !ok {
			return typeFault("string", v)
		}
		if len(s.Enum) > 0 && !slices.Contains(s.Enum, str) {
			return faultf("value %q not in enum %v", str, s.Enum)
		}
		return nil
	case Number, Integer:
		f, ok := asFloat(v)
		if !ok {
			return typeFault(string(s.Type), v)
		}
		if s.Type == Integer && f != math.Trunc(f) {
			return faultf("expected integer, got %v", f)
		}
		if s.Minimum != nil && f < *s.Minimum {
			return faultf("value %v below minimum %v", f, *s.Minimum)
		}
		if s.Maximum != nil && f > *s.Maximum {
			return faultf("value %v above maximum %v", f, *s.Maximum)
		}
		return nil
	case Boolean:
		if _, ok := v.(bool); !ok {
			return typeFault("boolean", v)
		}
		return nil
	default:
		return faultf("unsupported schema type %q", s.Type)
	}
}

func asFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case float32:
		return float64(x), true
	case int:
		return float64(x), true
	case int64:
		return float64(x), true
	case json.Number:
		f, err := x.Float64()
		return f, err == nil
	default:
		return 0, false
	}
}

// Normalize turns an arbitrary Go value into generic structured data —
// what json.Unmarshal into an any makes of its JSON encoding — so it can be
// validated and stored. It also returns that encoding, json.Marshal of v,
// so a caller that needs the value as JSON text does not encode it a
// second time.
//
// The value is built by one walk over the shapes the tools build, with no
// decode: map[string]any, []map[string]any, []any, []string, string,
// float64, int, bool and nil. A float64 is kept as is (its shortest text
// parses back exactly, −0 included), an int becomes the float64 nearest to
// it (as parsing its decimal text rounds), and a nil map or slice becomes
// nil. A string that is not valid UTF-8 (the encoder replaces its bad
// bytes), a map with such a key, and a value of any other type are each
// encoded and decoded on their own: json.Marshal, then json.Unmarshal, of
// that subvalue only.
func Normalize(v any) (any, []byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, nil, fmt.Errorf("schema: normalize: %w", err)
	}
	out, err := normalized(v)
	if err != nil {
		return nil, nil, fmt.Errorf("schema: normalize: %w", err)
	}
	return out, raw, nil
}

// normalized is Normalize's walk over a value that has already encoded.
func normalized(v any) (any, error) {
	switch x := v.(type) {
	case nil, bool, float64:
		return v, nil
	case int:
		return float64(x), nil
	case string:
		if utf8.ValidString(x) {
			return v, nil
		}
	case map[string]any:
		if x == nil {
			return nil, nil
		}
		m := make(map[string]any, len(x))
		for k, e := range x {
			if !utf8.ValidString(k) {
				// Two such keys can encode alike; the decode decides.
				return roundTrip(v)
			}
			n, err := normalized(e)
			if err != nil {
				return nil, err
			}
			m[k] = n
		}
		return m, nil
	case []any:
		return normalizedSlice(x)
	case []map[string]any:
		return normalizedSlice(x)
	case []string:
		return normalizedSlice(x)
	}
	return roundTrip(v)
}

func normalizedSlice[E any](x []E) (any, error) {
	if x == nil {
		return nil, nil
	}
	a := make([]any, len(x))
	for i, e := range x {
		n, err := normalized(e)
		if err != nil {
			return nil, err
		}
		a[i] = n
	}
	return a, nil
}

// roundTrip decodes v's own JSON encoding.
func roundTrip(v any) (any, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	var out any
	err = json.Unmarshal(raw, &out)
	return out, err
}

// ValidateValue normalizes a Go value and validates it in one step; it
// returns the normalized form for storage and the value's JSON encoding.
func (s *Schema) ValidateValue(v any) (any, []byte, error) {
	n, raw, err := Normalize(v)
	if err != nil {
		return nil, nil, err
	}
	if err := s.Validate(n); err != nil {
		return nil, nil, err
	}
	return n, raw, nil
}
