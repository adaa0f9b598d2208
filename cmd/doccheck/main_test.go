package main

import (
	"bytes"
	"flag"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/kset_api_v1.txt from the root package")

// root is the module root, two directories above this package.
const root = "../.."

// TestPublicAPI pins package kset's exported surface: one sorted line per
// exported declaration (funcs, methods on exported types, exported struct
// fields and interface methods, types, consts, vars) with its signature.
// A PR that changes the surface shows it in testdata/kset_api_v1.txt's diff.
func TestPublicAPI(t *testing.T) {
	got := apiOf(t, root)
	path := filepath.Join("testdata", "kset_api_v1.txt")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("package kset's exported surface differs from %s (rerun with -update after a deliberate change):\n%s", path, got)
	}
}

// apiOf renders the exported surface of the package in dir.
func apiOf(t *testing.T, dir string) []byte {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var lines []string
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				sig := strings.TrimPrefix(render(d.Type), "func")
				if d.Recv == nil {
					lines = append(lines, "func "+d.Name.Name+sig)
				} else if recv := receiverName(d.Recv); ast.IsExported(recv) {
					lines = append(lines, "func ("+render(d.Recv.List[0].Type)+") "+d.Name.Name+sig)
				}
			case *ast.GenDecl:
				var typ ast.Expr // a const group's implicit type carries over
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							lines = append(lines, typeLines(s)...)
						}
					case *ast.ValueSpec:
						if s.Type != nil || len(s.Values) > 0 {
							typ = s.Type
						}
						for i, n := range s.Names {
							if !n.IsExported() {
								continue
							}
							line := d.Tok.String() + " " + n.Name
							if typ != nil {
								line += " " + render(typ)
							} else if i < len(s.Values) {
								line += " = " + render(s.Values[i])
							}
							lines = append(lines, line)
						}
					}
				}
			}
		}
	}
	sort.Strings(lines)
	return []byte(strings.Join(lines, "\n") + "\n")
}

// typeLines renders a type declaration: aliases and defined types whole,
// structs and interfaces as a header line plus one line per exported field
// or method.
func typeLines(s *ast.TypeSpec) []string {
	name := s.Name.Name
	if s.Assign.IsValid() {
		return []string{"type " + name + " = " + render(s.Type)}
	}
	var fields *ast.FieldList
	switch tt := s.Type.(type) {
	case *ast.StructType:
		fields = tt.Fields
	case *ast.InterfaceType:
		fields = tt.Methods
	default:
		return []string{"type " + name + " " + render(s.Type)}
	}
	kind := strings.Fields(render(s.Type))[0]
	lines := []string{"type " + name + " " + kind}
	for _, f := range fields.List {
		if len(f.Names) == 0 { // embedded
			lines = append(lines, name+"."+render(f.Type))
			continue
		}
		for _, n := range f.Names {
			if !n.IsExported() {
				continue
			}
			if ft, ok := f.Type.(*ast.FuncType); ok {
				lines = append(lines, name+"."+n.Name+strings.TrimPrefix(render(ft), "func"))
			} else {
				lines = append(lines, name+"."+n.Name+" "+render(f.Type))
			}
		}
	}
	return lines
}

// render prints a node on one line: an empty FileSet maps every position
// to line 0, so go/printer breaks no line.
func render(n ast.Node) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, token.NewFileSet(), n); err != nil {
		panic(err)
	}
	return buf.String()
}

// harness lists the exported top-level functions in internal/ that only
// other packages' tests call, each with the reason it stays exported.
var harness = map[string]string{
	"wire.NewPipeNet":                 "in-memory datagram net for the root, faultnet and wire plane tests",
	"transporttest.Run":               "the conformance suite the rounds, faultnet and wire transports' tests run",
	"condition.CheckDistanceInstance": "§2 distance-instance oracle for the lattice tests",
	"condition.MustNewMin":            "min_ℓ condition fixture for the core tests",
	"vector.ForEachView":              "view enumerator for the condition and async tests",
	"vector.Hamming":                  "distance oracle for the condition tests",
	"lattice.VerifyCell":              "the Figure-1 cell check BenchmarkE1Lattice prices",
	"adversary.EnumerateWithOrders":   "order-aware crash enumeration for the core model-checking tests",
}

// TestNoDeadInternalExports fails on an exported top-level function in
// internal/ that no non-test file outside its own file names (bench/ and
// cmd/ count as callers), unless harness lists it. Selectors resolve
// through each file's imports; a package's own files name it unqualified.
func TestNoDeadInternalExports(t *testing.T) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	module := strings.Fields(string(mod))[1]
	type fn struct{ name, file string } // "pkg.Name", where it is declared
	defined := map[string]fn{}          // keyed by "import/path.Name"
	type file struct {
		path, name string // import path of its directory, file name
		ast        *ast.File
	}
	var files []file // non-test files only
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, filepath.Dir(path))
		ip := filepath.ToSlash(filepath.Join(module, rel))
		files = append(files, file{ip, path, f})
		if strings.HasPrefix(rel, "internal") {
			for _, decl := range f.Decls {
				if d, ok := decl.(*ast.FuncDecl); ok && d.Recv == nil && d.Name.IsExported() {
					defined[ip+"."+d.Name.Name] = fn{filepath.Base(rel) + "." + d.Name.Name, path}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	called := map[string]bool{}
	for _, f := range files {
		imports := map[string]string{}
		for _, im := range f.ast.Imports {
			p := strings.Trim(im.Path.Value, `"`)
			local := p[strings.LastIndex(p, "/")+1:]
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = p
		}
		decl := map[*ast.Ident]bool{} // names that declare, not refer
		ast.Inspect(f.ast, func(n ast.Node) bool {
			key := ""
			switch x := n.(type) {
			case *ast.FuncDecl:
				decl[x.Name] = true
			case *ast.Field:
				for _, id := range x.Names {
					decl[id] = true
				}
			case *ast.SelectorExpr:
				decl[x.Sel] = true
				if id, ok := x.X.(*ast.Ident); ok && imports[id.Name] != "" {
					key = imports[id.Name] + "." + x.Sel.Name
				}
			case *ast.Ident:
				if !decl[x] {
					key = f.path + "." + x.Name
				}
			}
			if d, ok := defined[key]; ok && d.file != f.name {
				called[key] = true
			}
			return true
		})
	}
	var bad []string
	listed := 0
	for key, d := range defined {
		switch {
		case harness[d.name] != "" && called[key]:
			bad = append(bad, d.name+" is listed in harness but has a non-test caller: drop the entry")
		case harness[d.name] != "":
			listed++
		case !called[key]:
			bad = append(bad, d.name+" ("+d.file+") has no non-test caller outside its file: delete it, unexport it, or list it in harness with a reason")
		}
	}
	if listed != len(harness) {
		bad = append(bad, "harness lists a function internal/ no longer declares")
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
	t.Logf("%d exported top-level functions in internal/, %d of them harness", len(defined), listed)
}
