// Package srcload is commguard-vet's one source front end. It finds the
// module root, parses each package directory at most once into a shared
// FileSet, type-checks only when an analysis asks, and owns the waiver
// grammar every source analysis honors. A vet run builds one Program and
// hands each analysis its files: internal/crit's criticality dataflow, the
// queue atomics discipline (internal/soundness) and the hot-path purity
// walk (internal/hotpath, the only typed client). The fixture entry points
// of those analyses share Source, the one single-file path.
//
// It is built on go/parser, go/types and the compiler's source importer
// alone — no go/packages, no module downloads — so the verifier runs in a
// hermetic container.
package srcload

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// Program is the parsed (and, on request, type-checked) source of one
// module, or of one standalone file.
type Program struct {
	Fset *token.FileSet
	// Info holds the type-checker's facts for every package Check loaded.
	Info *types.Info

	root   string // module root directory ("" for a single-file program)
	module string // module path from go.mod; "file/<package name>" for a single file

	files   map[string][]*ast.File    // parsed, by import path
	pkgs    map[string]*types.Package // type-checked, by import path
	loading map[string]bool           // import-cycle guard
	std     types.Importer            // stdlib source importer, made by the first Check

	// lenient type-checks past errors instead of failing: a lone file out
	// of a larger package legitimately misses cross-file declarations.
	lenient bool
}

// FindRoot returns the enclosing module root (the directory holding
// go.mod): the first above the working directory, so tests and experiment
// runs analyze the tree they run in, else the first above this package's
// source directory as compiled, so a built binary run from outside any
// module still finds the tree it was built from.
func FindRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	if root, ok := moduleAbove(dir); ok {
		return root, nil
	}
	if _, file, _, ok := runtime.Caller(0); ok && filepath.IsAbs(file) {
		if root, ok := moduleAbove(filepath.Dir(file)); ok {
			return root, nil
		}
	}
	return "", fmt.Errorf("srcload: no go.mod found above the working directory or the srcload source directory")
}

// moduleAbove walks up from dir to the first directory holding go.mod.
func moduleAbove(dir string) (string, bool) {
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, true
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", false
		}
		dir = parent
	}
}

// Open starts a program over the module rooted at root. Nothing is parsed
// until an analysis asks for a directory's files.
func Open(root string) (*Program, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("srcload: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module"); ok {
			p := newProgram()
			p.root, p.module = root, strings.TrimSpace(rest)
			return p, nil
		}
	}
	return nil, fmt.Errorf("srcload: no module line in %s", filepath.Join(root, "go.mod"))
}

// Source is the single-file path: it parses one in-memory file into a
// program of its own, in which the file stands alone as the package at
// directory ".". Type-checking it is lenient.
func Source(filename string, src []byte) (*Program, *ast.File, error) {
	p := newProgram()
	f, err := p.parseFile(filename, src)
	if err != nil {
		return nil, nil, err
	}
	p.module = "file/" + f.Name.Name
	p.files[p.module] = []*ast.File{f}
	p.lenient = true
	return p, f, nil
}

func newProgram() *Program {
	return &Program{
		Fset: token.NewFileSet(),
		Info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
		files:   map[string][]*ast.File{},
		pkgs:    map[string]*types.Package{},
		loading: map[string]bool{},
	}
}

// importPath maps a slash-separated directory relative to the module root
// to its import path.
func (p *Program) importPath(dir string) string {
	dir = strings.Trim(dir, "/")
	if dir == "" || dir == "." {
		return p.module
	}
	return p.module + "/" + dir
}

// InModule reports whether an import path belongs to the program's module.
func (p *Program) InModule(path string) bool {
	return path == p.module || strings.HasPrefix(path, p.module+"/")
}

// Files returns the non-test Go files of one package directory (relative
// to the module root), in file-name order, parsing them on first request.
// A missing directory, or one without Go files, is an error.
func (p *Program) Files(dir string) ([]*ast.File, error) {
	return p.parse(p.importPath(dir))
}

func (p *Program) parse(ipath string) ([]*ast.File, error) {
	if files, ok := p.files[ipath]; ok {
		return files, nil
	}
	if p.root == "" {
		return nil, fmt.Errorf("srcload: %s is outside the single-file program", ipath)
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(ipath, p.module), "/")
	dir := filepath.Join(p.root, filepath.FromSlash(rel))
	entries, err := os.ReadDir(dir) // sorted by file name
	if err != nil {
		return nil, fmt.Errorf("srcload: %w", err)
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := p.parseFile(filepath.Join(dir, name), nil)
		if err != nil {
			return nil, fmt.Errorf("srcload: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("srcload: no Go files in %s", dir)
	}
	p.files[ipath] = files
	return files, nil
}

// parseFile is the one parse call: from src when non-nil, else from disk.
func (p *Program) parseFile(filename string, src any) (*ast.File, error) {
	return parser.ParseFile(p.Fset, filename, src, parser.ParseComments)
}

// Check type-checks one package directory (relative to the module root;
// "." for a single-file program) and, recursively, the in-module packages
// it imports; everything else resolves through the compiler's source
// importer. A type error fails the check except in a single-file program.
func (p *Program) Check(dir string) (*types.Package, error) {
	if p.std == nil {
		p.std = importer.ForCompiler(p.Fset, "source", nil)
	}
	return p.check(p.importPath(dir))
}

// Import implements types.Importer: in-module imports recurse through the
// program, everything else goes to the source importer.
func (p *Program) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p.InModule(path) {
		return p.check(path)
	}
	return p.std.Import(path)
}

func (p *Program) check(ipath string) (*types.Package, error) {
	if pkg, ok := p.pkgs[ipath]; ok {
		return pkg, nil
	}
	if p.loading[ipath] {
		return nil, fmt.Errorf("import cycle through %s", ipath)
	}
	p.loading[ipath] = true
	defer delete(p.loading, ipath)

	files, err := p.parse(ipath)
	if err != nil {
		return nil, err
	}
	conf := types.Config{Importer: p, FakeImportC: true}
	if p.lenient {
		conf.Error = func(error) {}
	}
	pkg, err := conf.Check(ipath, p.Fset, files, p.Info)
	if err != nil && !p.lenient {
		return nil, err
	}
	p.pkgs[ipath] = pkg
	return pkg, nil
}

// CheckedFiles returns the files of every package Check has type-checked
// so far, in no particular order.
func (p *Program) CheckedFiles() []*ast.File {
	var out []*ast.File
	for ipath := range p.pkgs {
		out = append(out, p.files[ipath]...)
	}
	return out
}
