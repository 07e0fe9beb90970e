package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// Package is one type-checked package under analysis.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	dirs directives
}

// listedPkg mirrors the fields of `go list -json` the loader consumes.
type listedPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// Load type-checks the non-test sources of the packages matching patterns
// (go-list syntax, e.g. "./..."), resolving every import — stdlib and
// intra-module alike — from compiler export data, so the only toolchain
// dependency is the go command itself.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{
		"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,Export,Standard,DepOnly,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list: %v\n%s", err, stderr.String())
	}

	exports := map[string]string{} // import path -> export data file
	var targets []*listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("analysis: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.Standard && !p.DepOnly {
			pc := p
			targets = append(targets, &pc)
		}
	}
	// go list -deps emits packages in dependency order (a package follows
	// its imports). Keep that order for type-checking so every intra-module
	// import can resolve to the already source-checked package — the whole
	// module then shares one type universe, which the call-graph layer
	// requires (object identity across packages). Output order is sorted
	// below once checking is done.

	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
		return os.Open(f)
	}
	imp := &sourceImporter{
		fallback: importer.ForCompiler(fset, "gc", lookup).(types.ImporterFrom),
		srcs:     map[string]*types.Package{},
	}
	conf := types.Config{
		Importer:    imp,
		FakeImportC: true,
		Error:       func(error) {}, // collect what we can; a broken file should not sink the run
	}

	var pkgs []*Package
	for _, t := range targets {
		var files []*ast.File
		dirs := directives{}
		for _, name := range t.GoFiles {
			path := filepath.Join(t.Dir, name)
			src, err := os.ReadFile(path)
			if err != nil {
				return nil, fmt.Errorf("analysis: %v", err)
			}
			f, err := parser.ParseFile(fset, path, src, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("analysis: %v", err)
			}
			dirs.index(fset, f, src)
			files = append(files, f)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		tpkg, err := conf.Check(t.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("analysis: type-checking %s: %v", t.ImportPath, err)
		}
		imp.srcs[t.ImportPath] = tpkg
		pkgs = append(pkgs, &Package{
			Path:  t.ImportPath,
			Dir:   t.Dir,
			Fset:  fset,
			Files: files,
			Types: tpkg,
			Info:  info,
			dirs:  dirs,
		})
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// sourceImporter resolves imports of already type-checked target packages
// to their source-checked *types.Package, falling back to compiler export
// data for everything else (stdlib, dep-only packages). Source preference
// keeps the module in one type universe: a *types.Func seen from an
// importing package is the same object the defining package declared.
type sourceImporter struct {
	fallback types.ImporterFrom
	srcs     map[string]*types.Package
}

func (m *sourceImporter) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, "", 0)
}

func (m *sourceImporter) ImportFrom(path, dir string, _ types.ImportMode) (*types.Package, error) {
	if p, ok := m.srcs[path]; ok {
		return p, nil
	}
	return m.fallback.ImportFrom(path, dir, 0)
}
