// Package schema provides a small JSON-schema dialect with strict
// validation. It is GridMind's substitute for the Pydantic layer the
// paper builds on: every tool input and output is validated against an
// explicit schema before an agent may act on it, so malformed payloads
// trigger recovery paths instead of silently corrupting downstream
// reasoning (§3.3 "Data Models and Type Safety").
package schema

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
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
// float64 / bool / nil, plus native Go ints) against the schema.
func (s *Schema) Validate(v any) error {
	return s.validate(v, "$")
}

func (s *Schema) validate(v any, path string) error {
	switch s.Type {
	case Object:
		m, ok := v.(map[string]any)
		if !ok {
			return typeErr(path, "object", v)
		}
		for _, req := range s.Required {
			if _, present := m[req]; !present {
				return fmt.Errorf("schema: %s: missing required field %q", path, req)
			}
		}
		// Deterministic error order helps tests and logs.
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			sub, known := s.Properties[k]
			if !known {
				if s.AllowExtra {
					continue
				}
				return fmt.Errorf("schema: %s: unknown field %q", path, k)
			}
			if err := sub.validate(m[k], path+"."+k); err != nil {
				return err
			}
		}
		return nil
	case Array:
		a, ok := v.([]any)
		if !ok {
			return typeErr(path, "array", v)
		}
		if s.Items != nil {
			for i, item := range a {
				if err := s.Items.validate(item, fmt.Sprintf("%s[%d]", path, i)); err != nil {
					return err
				}
			}
		}
		return nil
	case String:
		str, ok := v.(string)
		if !ok {
			return typeErr(path, "string", v)
		}
		if len(s.Enum) > 0 {
			for _, e := range s.Enum {
				if str == e {
					return nil
				}
			}
			return fmt.Errorf("schema: %s: value %q not in enum %v", path, str, s.Enum)
		}
		return nil
	case Number, Integer:
		f, ok := asFloat(v)
		if !ok {
			return typeErr(path, string(s.Type), v)
		}
		if s.Type == Integer && f != math.Trunc(f) {
			return fmt.Errorf("schema: %s: expected integer, got %v", path, f)
		}
		if s.Minimum != nil && f < *s.Minimum {
			return fmt.Errorf("schema: %s: value %v below minimum %v", path, f, *s.Minimum)
		}
		if s.Maximum != nil && f > *s.Maximum {
			return fmt.Errorf("schema: %s: value %v above maximum %v", path, f, *s.Maximum)
		}
		return nil
	case Boolean:
		if _, ok := v.(bool); !ok {
			return typeErr(path, "boolean", v)
		}
		return nil
	default:
		return fmt.Errorf("schema: %s: unsupported schema type %q", path, s.Type)
	}
}

func typeErr(path, want string, got any) error {
	return fmt.Errorf("schema: %s: expected %s, got %T", path, want, got)
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

// Normalize round-trips an arbitrary Go value through JSON so it can be
// validated and stored as generic structured data. It also returns the
// JSON encoding the value was decoded from, so a caller that needs the
// value as JSON text does not encode it a second time.
func Normalize(v any) (any, []byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, nil, fmt.Errorf("schema: normalize: %w", err)
	}
	var out any
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, nil, fmt.Errorf("schema: normalize: %w", err)
	}
	return out, raw, nil
}

// ValidateValue normalizes a Go value and validates it in one step; it
// returns the normalized form for storage and the JSON encoding that form
// was decoded from.
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
