package adminv1

import (
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

// schemaLines lists every JSON key a v1 response carries, one line each:
// the key's path from its endpoint ("stats.cache.evictions.budget"; a map's
// values sit under "*", a list's elements under "[]") and the JSON kind of
// its value.
func schemaLines() []string {
	var lines []string
	var walk func(path string, t reflect.Type)
	walk = func(path string, t reflect.Type) {
		kind := "number"
		switch {
		case t == reflect.TypeOf(time.Time{}), t.Kind() == reflect.String,
			t.Kind() == reflect.Slice && t.Elem().Kind() == reflect.Uint8:
			kind = "string"
		case t.Kind() == reflect.Bool:
			kind = "bool"
		case t.Kind() == reflect.Struct:
			kind = "object"
		case t.Kind() == reflect.Map:
			kind = "map"
		case t.Kind() == reflect.Slice:
			kind = "array"
		}
		lines = append(lines, path+" "+kind)
		switch kind {
		case "object":
			fields(path, t, walk)
		case "map":
			walk(path+".*", t.Elem())
		case "array":
			walk(path+".[]", t.Elem())
		}
	}
	for endpoint, v := range map[string]any{
		"stats": StatsResponse{}, "health": HealthResponse{},
		"spans": SpansResponse{}, "cluster/entry": ClusterEntry{},
	} {
		walk(endpoint, reflect.TypeOf(v))
	}
	slices.Sort(lines)
	return lines
}

// fields walks a struct's JSON keys; an embedded struct's keys are its own.
func fields(path string, t reflect.Type, walk func(string, reflect.Type)) {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		switch {
		case f.Anonymous && name == "":
			fields(path, f.Type, walk)
		case f.IsExported() && name != "-":
			if name == "" {
				name = f.Name
			}
			walk(path+"."+name, f.Type)
		}
	}
}

// TestV1SchemaOnlyGrows is the package's evolution rule as a test: every
// key testdata/v1.schema pins is still there with the same JSON kind. A v1
// field may be added (append its line to the file) but never removed or
// retyped; an incompatible change gets a new version prefix.
func TestV1SchemaOnlyGrows(t *testing.T) {
	raw, err := os.ReadFile("testdata/v1.schema")
	if err != nil {
		t.Fatal(err)
	}
	pinned := strings.Split(strings.TrimSpace(string(raw)), "\n")
	now := schemaLines()
	for _, line := range pinned {
		if !slices.Contains(now, line) {
			t.Errorf("pinned v1 key removed or retyped: %s", line)
		}
	}
	if len(now) > len(pinned) {
		t.Logf("%d keys not pinned yet; testdata/v1.schema lists %d of %d", len(now)-len(pinned), len(pinned), len(now))
	}
}
