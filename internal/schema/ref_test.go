package schema

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
)

// validateRef is the path-building validator Validate replaced: it sorts
// every object's keys and formats the path of every field it visits. It
// is the reference Validate's errors are held to, message for message.
func validateRef(s *Schema, v any, path string) error {
	switch s.Type {
	case Object:
		m, ok := v.(map[string]any)
		if !ok {
			return typeErrRef(path, "object", v)
		}
		for _, req := range s.Required {
			if _, present := m[req]; !present {
				return fmt.Errorf("schema: %s: missing required field %q", path, req)
			}
		}
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
			if err := validateRef(sub, m[k], path+"."+k); err != nil {
				return err
			}
		}
		return nil
	case Array:
		a, ok := v.([]any)
		if !ok {
			return typeErrRef(path, "array", v)
		}
		if s.Items != nil {
			for i, item := range a {
				if err := validateRef(s.Items, item, fmt.Sprintf("%s[%d]", path, i)); err != nil {
					return err
				}
			}
		}
		return nil
	case String:
		str, ok := v.(string)
		if !ok {
			return typeErrRef(path, "string", v)
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
			return typeErrRef(path, string(s.Type), v)
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
			return typeErrRef(path, "boolean", v)
		}
		return nil
	default:
		return fmt.Errorf("schema: %s: unsupported schema type %q", path, s.Type)
	}
}

func typeErrRef(path, want string, got any) error {
	return fmt.Errorf("schema: %s: expected %s, got %T", path, want, got)
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestValidateErrorMessages: for each invalid input, Validate reports the
// exact message the path-building reference reports, the first error in
// sorted-key order.
func TestValidateErrorMessages(t *testing.T) {
	inner := Obj("", map[string]*Schema{
		"x": Int("").WithRange(0, 10),
		"s": Str("").WithEnum("a", "b"),
	}, "x")
	s := Obj("", map[string]*Schema{
		"a":     Num(""),
		"b":     Bool(""),
		"inner": inner,
		"list":  Arr("", inner),
		"open":  Obj("", map[string]*Schema{"k": Str("")}).WithExtra(),
		"weird": {Type: "null"},
	}, "a")
	cases := []struct {
		v    any
		want string
	}{
		{"x", `schema: $: expected object, got string`},
		{map[string]any{}, `schema: $: missing required field "a"`},
		{map[string]any{"a": "1"}, `schema: $.a: expected number, got string`},
		// Several failing keys: the one that sorts first is reported.
		{map[string]any{"a": 1.0, "zz": 1, "b": 1.0, "inner": 2}, `schema: $.b: expected boolean, got float64`},
		{map[string]any{"a": 1.0, "zz": 1, "inner": 2}, `schema: $.inner: expected object, got int`},
		{map[string]any{"a": 1.0, "zz": 1, "yy": 2}, `schema: $: unknown field "yy"`},
		{map[string]any{"a": 1.0, "inner": map[string]any{"x": 2.5}}, `schema: $.inner.x: expected integer, got 2.5`},
		{map[string]any{"a": 1.0, "inner": map[string]any{"x": -1}}, `schema: $.inner.x: value -1 below minimum 0`},
		{map[string]any{"a": 1.0, "inner": map[string]any{"x": 11.0, "s": "c"}}, `schema: $.inner.s: value "c" not in enum [a b]`},
		{map[string]any{"a": 1.0, "inner": map[string]any{"x": 11.0}}, `schema: $.inner.x: value 11 above maximum 10`},
		{map[string]any{"a": 1.0, "list": map[string]any{}}, `schema: $.list: expected array, got map[string]interface {}`},
		{map[string]any{"a": 1.0, "list": []any{map[string]any{"x": 1.0}, map[string]any{"s": "a"}, nil}}, `schema: $.list[1]: missing required field "x"`},
		{map[string]any{"a": 1.0, "list": []any{map[string]any{"x": 1.0, "q": 1, "p": true}}}, `schema: $.list[0]: unknown field "p"`},
		{map[string]any{"a": 1.0, "open": map[string]any{"k": 3, "extra": 1}}, `schema: $.open.k: expected string, got int`},
		{map[string]any{"a": 1.0, "weird": nil}, `schema: $.weird: unsupported schema type "null"`},
	}
	for i, tc := range cases {
		got, ref := errText(s.Validate(tc.v)), errText(validateRef(s, tc.v, "$"))
		if got != tc.want || ref != tc.want {
			t.Errorf("case %d: Validate %q, reference %q, want %q", i, got, ref, tc.want)
		}
	}
	if err := s.Validate(map[string]any{"a": 1, "open": map[string]any{"k": "v", "extra": 1}}); err != nil {
		t.Errorf("valid value rejected: %v", err)
	}
}

// TestValidateSkipsWorkWhenValid: a valid tool-sized result is checked
// without a single allocation, so no key is sorted and no path built.
func TestValidateSkipsWorkWhenValid(t *testing.T) {
	row := Obj("", map[string]*Schema{"branch": Int(""), "severity": Num("")}, "branch").WithExtra()
	s := Obj("", map[string]*Schema{
		"case_name": Str(""),
		"strategy":  Str("").WithEnum("composite", "thermal-first"),
		"critical":  Arr("", row),
	}, "case_name", "critical")
	var v any
	if err := json.Unmarshal([]byte(`{"case_name":"case57","strategy":"composite",`+
		`"critical":[{"branch":7,"severity":1.5,"description":"x"},{"branch":3,"severity":0.5}]}`), &v); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := s.Validate(v); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("valid value cost %v allocations per Validate, want 0", allocs)
	}
	if err := s.Validate(map[string]any{"case_name": 1, "critical": []any{}}); err == nil || !strings.Contains(err.Error(), "$.case_name") {
		t.Fatalf("invalid value: %v", err)
	}
}
