package main

import (
	"bytes"
	"errors"
	"flag"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/printer"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
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

// harness lists the exported functions and methods in internal/ that only
// tests call, each with the reason it stays exported.
var harness = map[string]string{
	"wire.NewPipeNet":                  "in-memory datagram net for the root, faultnet and wire plane tests",
	"wire.PipeNet.Conn":                "an endpoint of NewPipeNet's net, for the same tests",
	"wire.PipeNet.SetDrop":             "the loss adversary of NewPipeNet's net, for the same tests",
	"transporttest.Run":                "the conformance suite the rounds, faultnet and wire transports' tests run",
	"condition.CheckDistanceInstance":  "§2 distance-instance oracle for the lattice tests",
	"condition.MustNewMin":             "min_ℓ condition fixture for the core tests",
	"vector.ForEachView":               "view enumerator for the condition and async tests",
	"vector.Hamming":                   "distance oracle for the condition tests",
	"vector.Vector.ContainedIn":        "the paper's view containment J ≤ I, the oracle the vector, condition and async tests hold views to",
	"rounds.FailurePattern.Validate":   "the well-formedness oracle the adversary and root tests hold generated patterns to",
	"lattice.VerifyCell":               "the Figure-1 cell check BenchmarkE1Lattice prices",
	"adversary.ExhaustiveOrdersFamily": "order-aware exhaustive crash family for the core model-checking tests",
	"stats.Accumulator.HitRate":        "kset.Accumulator's hit rate, read off CampaignStats.Metrics; internal/stats stays unchanged until the wire_udp allocation noise is explained (ROADMAP item 10)",
	"stats.Accumulator.Snapshot":       "kset.Accumulator's deep copy, which the root tests and bench_test.go take; held with HitRate",
	"stats.Histogram.Decided":          "kset.Histogram's decided-run count, read off CampaignStats.Metrics; held with HitRate",
}

// TestNoDeadInternalExports fails on an exported top-level function in
// internal/ that no non-test file outside its own file names (bench/ and
// cmd/ count as callers), or on an exported method of an exported type
// there that no non-test file names, unless harness lists it. A method
// that implements an interface is called through it, where no caller
// names the method: one whose name an interface of the module declares,
// or that implements error or a standard interface of stdIfaces, is not
// checked.
func TestNoDeadInternalExports(t *testing.T) {
	m := loadModule(t)
	var bad []string
	listed, total := 0, 0
	for _, obj := range m.funcs {
		path := obj.Pkg().Path()
		if !strings.HasPrefix(path, m.path+"/internal/") || m.viaInterface(obj) {
			continue
		}
		total++
		name := path[strings.LastIndex(path, "/")+1:] + "." + qualName(obj)
		file := m.fset.Position(obj.Pos()).Filename
		// A method called in its own file serves its type's API there.
		method := obj.Type().(*types.Signature).Recv() != nil
		called := false
		for _, u := range m.users[obj] {
			called = called || u != file || method
		}
		switch {
		case harness[name] != "" && called:
			bad = append(bad, name+" is listed in harness but has a non-test caller: drop the entry")
		case harness[name] != "":
			listed++
		case !called && method:
			bad = append(bad, name+" ("+file+") has no non-test caller: delete it, move it into the test that uses it, or list it in harness with a reason")
		case !called:
			bad = append(bad, name+" ("+file+") has no non-test caller outside its file: delete it, unexport it, or list it in harness with a reason")
		}
	}
	if listed != len(harness) {
		bad = append(bad, "harness lists a function or method internal/ no longer declares")
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
	t.Logf("%d exported functions and methods in internal/, %d of them harness", total, listed)
}

// rootAllow lists the exported functions and methods of package kset that
// nothing outside its tests calls, each with the reason it stays exported.
// "A root test uses it" is no reason: a test-only helper belongs in a
// _test.go file. NewCampaign, SubmitAll, Wait and RunCampaign need no
// entry while bench/ calls them (its campaign.submit_us_per_run and
// campaign.slice_us_per_run rows, and wide_sync); they go when bench/
// stops.
var rootAllow = map[string]string{
	"IsLegalizable":             "the paper's question whether some recognizer makes a hand-built condition legal",
	"ScenariosOf":               "the one way to run explicit Scenarios (per-scenario Seed and AsyncCrashes) through RunSource",
	"CampaignStats.MarshalJSON": "satisfies json.Marshaler",
}

// TestNoDeadRootExports fails on an exported function or method of package
// kset that is named by no non-test file under cmd/, internal/ or bench/
// and by no Example in example_test.go, unless rootAllow lists it. Types,
// vars and consts are TestPublicAPI's.
func TestNoDeadRootExports(t *testing.T) {
	m := loadModule(t)
	var bad []string
	listed := 0
	for _, obj := range m.funcs {
		if obj.Pkg().Path() != m.path {
			continue
		}
		name := qualName(obj)
		called := false
		for _, u := range m.users[obj] {
			called = called || u == exampleFile || filepath.Dir(u) != m.root
		}
		switch {
		case rootAllow[name] != "" && called:
			bad = append(bad, name+" is listed in rootAllow but has a caller: drop the entry")
		case rootAllow[name] != "":
			listed++
		case !called:
			bad = append(bad, name+" has no caller in cmd/, internal/, bench/ or an Example: delete it, unexport it, or list it in rootAllow with a reason")
		}
	}
	if listed != len(rootAllow) {
		bad = append(bad, "rootAllow lists a name package kset no longer declares")
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
}

// qualName names a function as its package sees it: Type.Method for a
// method, the bare name for a top-level function.
func qualName(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return fn.Name()
	}
	typ := recv.Type()
	if ptr, ok := typ.(*types.Pointer); ok {
		typ = ptr.Elem()
	}
	return typ.(*types.Named).Obj().Name() + "." + fn.Name()
}

// stdIfaces are the standard-library interfaces whose methods a type of
// the module implements to be called through them: fmt's printing, the
// encoders' hooks, sort and HTTP.
var stdIfaces = []struct{ pkg, name string }{
	{"fmt", "Stringer"}, {"fmt", "Formatter"},
	{"encoding", "TextMarshaler"}, {"encoding", "TextUnmarshaler"},
	{"encoding/json", "Marshaler"}, {"encoding/json", "Unmarshaler"},
	{"io", "Reader"}, {"io", "Writer"}, {"io", "Closer"},
	{"sort", "Interface"}, {"net/http", "Handler"},
}

// viaInterface reports whether a method may be called through an
// interface: its name is a method of an interface the module declares,
// or its receiver's type implements error or one of stdIfaces with it.
func (m *module) viaInterface(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	if m.ifaceMethods[fn.Name()] {
		return true
	}
	typ := recv.Type()
	if ptr, ok := typ.(*types.Pointer); ok {
		typ = ptr.Elem()
	}
	for _, iface := range m.stdIfaces {
		if !types.Implements(typ, iface) && !types.Implements(types.NewPointer(typ), iface) {
			continue
		}
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == fn.Name() {
				return true
			}
		}
	}
	return false
}

// exampleFile is the root test file whose Example functions count as
// callers of package kset.
const exampleFile = "example_test.go"

// A module is every package of this module type-checked from its non-test
// files for the host platform, plus the Examples of the root's
// example_test.go, with the exported functions and methods it declares
// and the files that name each one.
type module struct {
	path, root string // module path; absolute directory of the root package
	fset       *token.FileSet
	std        types.Importer
	pkgs       map[string]*types.Package

	// funcs holds the exported top-level functions of every package and
	// the exported methods of the root's and internal/'s exported types;
	// users maps each to the absolute names of the files that name it, and
	// to exampleFile for a use inside an Example.
	funcs []*types.Func
	users map[types.Object][]string

	// ifaceMethods holds the method names of every interface type the
	// module declares; stdIfaces holds error and the types of stdIfaces.
	ifaceMethods map[string]bool
	stdIfaces    []*types.Interface
}

var (
	moduleOnce    sync.Once
	loaded        *module
	moduleLoadErr error
)

// loadModule type-checks the module once per test binary.
func loadModule(t *testing.T) *module {
	t.Helper()
	moduleOnce.Do(func() { loaded, moduleLoadErr = newModule() })
	if moduleLoadErr != nil {
		t.Fatal(moduleLoadErr)
	}
	return loaded
}

func newModule() (*module, error) {
	dir, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	mod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return nil, err
	}
	// The module uses no cgo, and with it off the standard library
	// type-checks from pure Go files, needing no C toolchain.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	m := &module{
		path: strings.Fields(string(mod))[1], root: dir, fset: fset,
		std:   importer.ForCompiler(fset, "source", nil),
		pkgs:  map[string]*types.Package{},
		users: map[types.Object][]string{},

		ifaceMethods: map[string]bool{},
		stdIfaces:    []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)},
	}
	for _, si := range stdIfaces {
		p, err := m.std.Import(si.pkg)
		if err != nil {
			return nil, err
		}
		m.stdIfaces = append(m.stdIfaces, p.Scope().Lookup(si.name).Type().Underlying().(*types.Interface))
	}
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if n := d.Name(); path != dir && (strings.HasPrefix(n, ".") || n == "testdata") {
			return filepath.SkipDir
		}
		rel, _ := filepath.Rel(dir, path)
		_, err = m.Import(filepath.ToSlash(filepath.Join(m.path, rel)))
		var none *build.NoGoError
		if errors.As(err, &none) {
			return nil
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	// The Examples are the root's walkthroughs: what they call is used.
	f, err := parser.ParseFile(fset, filepath.Join(dir, exampleFile), nil, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	if _, err := (&types.Config{Importer: m}).Check(m.path+"_test", fset, []*ast.File{f}, info); err != nil {
		return nil, err
	}
	for _, decl := range f.Decls {
		if d, ok := decl.(*ast.FuncDecl); ok && strings.HasPrefix(d.Name.Name, "Example") {
			ast.Inspect(d, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && info.Uses[id] != nil {
					obj := origin(info.Uses[id])
					m.users[obj] = append(m.users[obj], exampleFile)
				}
				return true
			})
		}
	}
	return m, nil
}

// Import type-checks a package of the module from its non-test files,
// recording what it declares and names; any other path goes to the
// source importer.
func (m *module) Import(path string) (*types.Package, error) {
	if !m.contains(path) {
		return m.std.Import(path)
	}
	if p := m.pkgs[path]; p != nil {
		return p, nil
	}
	bp, err := build.ImportDir(filepath.Join(m.root, strings.TrimPrefix(path, m.path)), 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(m.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	p, err := (&types.Config{Importer: m}).Check(path, m.fset, files, info)
	if err != nil {
		return nil, err
	}
	m.pkgs[path] = p
	for id, obj := range info.Uses {
		if obj.Pkg() != nil && m.contains(obj.Pkg().Path()) {
			obj = origin(obj)
			m.users[obj] = append(m.users[obj], m.fset.Position(id.Pos()).Filename)
		}
	}
	scope := p.Scope()
	for _, name := range scope.Names() {
		switch obj := scope.Lookup(name).(type) {
		case *types.Func:
			if obj.Exported() {
				m.funcs = append(m.funcs, obj)
			}
		case *types.TypeName:
			named, ok := obj.Type().(*types.Named)
			if !ok || obj.IsAlias() {
				continue
			}
			if iface, ok := named.Underlying().(*types.Interface); ok {
				for i := 0; i < iface.NumMethods(); i++ {
					m.ifaceMethods[iface.Method(i).Name()] = true
				}
			}
			if !obj.Exported() || (path != m.path && !strings.HasPrefix(path, m.path+"/internal/")) {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if fn := named.Method(i); fn.Exported() {
					m.funcs = append(m.funcs, fn)
				}
			}
		}
	}
	return p, nil
}

// contains reports whether an import path is in the module.
func (m *module) contains(path string) bool {
	return path == m.path || strings.HasPrefix(path, m.path+"/")
}

// origin maps an instantiated generic function or method to its
// declaration.
func origin(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}
