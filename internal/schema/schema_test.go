package schema

import (
	"strings"
	"testing"
)

func TestValidateObject(t *testing.T) {
	s := Obj("", map[string]*Schema{
		"name": Str("name"),
		"age":  Int("age").WithRange(0, 150),
	}, "name")
	if err := s.Validate(map[string]any{"name": "x", "age": float64(30)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(map[string]any{"age": float64(30)}); err == nil {
		t.Fatal("missing required field not caught")
	}
	if err := s.Validate(map[string]any{"name": "x", "bogus": 1}); err == nil {
		t.Fatal("unknown field not caught (strict mode)")
	}
	if err := s.WithExtra().Validate(map[string]any{"name": "x", "bogus": 1}); err != nil {
		t.Fatalf("AllowExtra rejected extra key: %v", err)
	}
}

func TestValidateTypes(t *testing.T) {
	cases := []struct {
		s   *Schema
		ok  []any
		bad []any
	}{
		{Str(""), []any{"a"}, []any{1.0, true, nil}},
		{Num(""), []any{1.5, 2, int64(3)}, []any{"x", true}},
		{Int(""), []any{float64(2), 5}, []any{2.5, "x"}},
		{Bool(""), []any{true}, []any{"true", 1.0}},
		{Arr("", Int("")), []any{[]any{1.0, 2.0}}, []any{"x", []any{"a"}}},
	}
	for i, tc := range cases {
		for _, v := range tc.ok {
			if err := tc.s.Validate(v); err != nil {
				t.Errorf("case %d: %v rejected: %v", i, v, err)
			}
		}
		for _, v := range tc.bad {
			if err := tc.s.Validate(v); err == nil {
				t.Errorf("case %d: %v accepted", i, v)
			}
		}
	}
}

func TestValidateRange(t *testing.T) {
	s := Num("").WithRange(0, 10)
	if err := s.Validate(5.0); err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(-1.0); err == nil {
		t.Fatal("below minimum accepted")
	}
	if err := s.Validate(11.0); err == nil {
		t.Fatal("above maximum accepted")
	}
}

func TestValidateEnum(t *testing.T) {
	s := Str("").WithEnum("a", "b")
	if err := s.Validate("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Validate("c"); err == nil {
		t.Fatal("non-enum value accepted")
	}
}

func TestErrorPathsAreInformative(t *testing.T) {
	s := Obj("", map[string]*Schema{
		"inner": Obj("", map[string]*Schema{"x": Int("")}, "x"),
	}, "inner")
	err := s.Validate(map[string]any{"inner": map[string]any{"x": "oops"}})
	if err == nil || !strings.Contains(err.Error(), "$.inner.x") {
		t.Fatalf("error lacks path: %v", err)
	}
}

func TestNestedArrayValidation(t *testing.T) {
	s := Arr("", Obj("", map[string]*Schema{"v": Num("")}, "v"))
	ok := []any{map[string]any{"v": 1.0}, map[string]any{"v": 2.0}}
	if err := s.Validate(ok); err != nil {
		t.Fatal(err)
	}
	bad := []any{map[string]any{"v": 1.0}, map[string]any{}}
	err := s.Validate(bad)
	if err == nil || !strings.Contains(err.Error(), "[1]") {
		t.Fatalf("array index missing from error: %v", err)
	}
}

func TestNormalizeAndValidateValue(t *testing.T) {
	type payload struct {
		Name  string  `json:"name"`
		Score float64 `json:"score"`
	}
	s := Obj("", map[string]*Schema{
		"name":  Str(""),
		"score": Num(""),
	}, "name")
	norm, _, err := s.ValidateValue(payload{Name: "a", Score: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	m, ok := norm.(map[string]any)
	if !ok || m["name"] != "a" {
		t.Fatalf("normalized form %T %v", norm, norm)
	}
}

func TestNormalizeRejectsUnmarshalable(t *testing.T) {
	if _, _, err := Normalize(make(chan int)); err == nil {
		t.Fatal("channel should not normalize")
	}
}
