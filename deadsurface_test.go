//go:build deadsurface

package appx

import (
	"bufio"
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestDeadSurface is the dead-surface gate scripts/check.sh runs:
//
//	go test -tags deadsurface -run '^TestDeadSurface$' .
//
// It type-checks every non-test package of the module and lists each
// exported identifier of internal/ — package-level names, methods, and the
// fields of struct types — that no non-test code references. bench/ is a
// module of its own, so its references do not count. A listed name fails
// the test unless testdata/deadsurface.allow carries it with one reason:
//
//	bench   bench/ names it
//	iface   the method satisfies an interface
//	json    encoding/json reads the field
//	test    tests in another package need it; the line names the test file
//
// An allow-list line whose name no longer exists, or that program code
// references again, fails the test too, so the list can only shrink.
func TestDeadSurface(t *testing.T) {
	unused, kinds := scanSurface(t)
	allow := readAllowList(t, "testdata/deadsurface.allow")
	for _, name := range sortedNames(unused) {
		if _, ok := allow[name]; !ok {
			t.Errorf("%s: %s: exported, but no program code outside bench/ references it", unused[name], name)
		}
	}
	for _, name := range sortedNames(allow) {
		line := allow[name]
		if _, ok := unused[name]; !ok {
			if kinds[name] == "" {
				t.Errorf("deadsurface.allow:%d: %s no longer exists", line.n, name)
			} else {
				t.Errorf("deadsurface.allow:%d: %s has a program caller now: drop the line", line.n, name)
			}
			continue
		}
		if err := line.check(name, kinds[name]); err != "" {
			t.Errorf("deadsurface.allow:%d: %s: %s", line.n, name, err)
		}
	}
}

// listedPackage is the part of `go list -json` the scan reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
}

// scanSurface returns the unreferenced exported names of internal/, each
// with the position of its declaration, and the kind ("func", "method",
// "field", ...) of every exported name it saw.
func scanSurface(t *testing.T) (unused, kinds map[string]string) {
	// -deps lists dependencies before their dependents, and -export builds
	// the export data the standard library is imported from.
	out, err := exec.Command("go", "list", "-deps", "-export", "-json", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}

	fset := token.NewFileSet()
	exportFile := map[string]string{}
	for _, p := range pkgs {
		exportFile[p.ImportPath] = p.Export
	}
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exportFile[path])
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})

	used := map[types.Object]bool{}
	var surface []*types.Package
	for _, p := range pkgs {
		if p.Standard {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		pkg, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg
		for _, obj := range info.Uses {
			used[origin(obj)] = true
		}
		if strings.HasPrefix(p.ImportPath, "appx/internal/") {
			surface = append(surface, pkg)
		}
	}

	wd, _ := os.Getwd()
	unused, kinds = map[string]string{}, map[string]string{}
	note := func(name, kind string, obj types.Object) {
		kinds[name] = kind
		if !used[obj] {
			pos := fset.Position(obj.Pos())
			if rel, err := filepath.Rel(wd, pos.Filename); err == nil {
				pos.Filename = rel
			}
			unused[name] = pos.String()
		}
	}
	for _, pkg := range surface {
		prefix := strings.TrimPrefix(pkg.Path(), "appx/") + "."
		scope := pkg.Scope()
		for _, n := range scope.Names() {
			obj := scope.Lookup(n)
			if obj.Exported() {
				note(prefix+n, kindOf(obj), obj)
			}
			// An unexported type's exported methods and fields count too.
			tn, ok := obj.(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); m.Exported() {
						note(prefix+n+"."+m.Name(), "method", m)
					}
				}
			}
			switch u := tn.Type().Underlying().(type) {
			case *types.Struct:
				for i := 0; i < u.NumFields(); i++ {
					if f := u.Field(i); f.Exported() && !f.Embedded() {
						note(prefix+n+"."+f.Name(), "field", f)
					}
				}
			case *types.Interface:
				for i := 0; i < u.NumExplicitMethods(); i++ {
					if m := u.ExplicitMethod(i); m.Exported() {
						note(prefix+n+"."+m.Name(), "method", m)
					}
				}
			}
		}
	}
	return unused, kinds
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// origin maps an instantiated generic object to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func kindOf(obj types.Object) string {
	switch obj.(type) {
	case *types.Func:
		return "func"
	case *types.TypeName:
		return "type"
	case *types.Const:
		return "const"
	}
	return "var"
}

// allowLine is one line of the allow list: "<name> <reason> [<test file>]".
type allowLine struct {
	n      int
	reason string
	file   string
}

// check reports what is wrong with the line's reason for a name of kind.
func (l allowLine) check(name, kind string) string {
	word := regexp.MustCompile(`\b` + regexp.QuoteMeta(name[strings.LastIndexByte(name, '.')+1:]) + `\b`)
	switch l.reason {
	case "bench":
		if !mentions("bench", word) {
			return "reason bench, but no file under bench/ names it"
		}
	case "iface":
		if kind != "method" {
			return "reason iface, but it is a " + kind
		}
	case "json":
		if kind != "field" {
			return "reason json, but it is a " + kind
		}
	case "test":
		pkgDir := strings.TrimSuffix(name[:strings.IndexByte(name, '.')], "/")
		if !strings.HasSuffix(l.file, "_test.go") || filepath.Dir(l.file) == pkgDir {
			return "reason test needs a test file of another package, not " + l.file
		}
		if !mentions(l.file, word) {
			return l.file + " does not name it"
		}
	default:
		return "unknown reason " + l.reason
	}
	return ""
}

// mentions reports whether a Go file at path, or under it, matches word.
func mentions(path string, word *regexp.Regexp) bool {
	found := false
	filepath.WalkDir(path, func(p string, d os.DirEntry, err error) error {
		if err != nil || found || d.IsDir() || !strings.HasSuffix(p, ".go") {
			return err
		}
		b, err := os.ReadFile(p)
		found = err == nil && word.Match(b)
		return nil
	})
	return found
}

func readAllowList(t *testing.T, path string) map[string]allowLine {
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allow := map[string]allowLine{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		text, _, _ := strings.Cut(sc.Text(), "#")
		fields := strings.Fields(text)
		if len(fields) == 0 {
			continue
		}
		line := allowLine{n: n}
		switch {
		case len(fields) == 2 && fields[1] != "test":
			line.reason = fields[1]
		case len(fields) == 3 && fields[1] == "test":
			line.reason, line.file = fields[1], fields[2]
		default:
			t.Errorf("deadsurface.allow:%d: want \"<name> <reason>\" or \"<name> test <file>\", got %q", n, sc.Text())
			continue
		}
		if _, dup := allow[fields[0]]; dup {
			t.Errorf("deadsurface.allow:%d: %s listed twice", n, fields[0])
		}
		allow[fields[0]] = line
	}
	return allow
}

func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}
