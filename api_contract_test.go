package sstar

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestAPIContract holds DESIGN.md's "API contract" section and the package's
// exported identifiers to each other: every export of a non-test file, each
// method written as Type.Method and each field of Options as Options.Field,
// must be listed there, and every listed name must still exist. Listing the
// Options fields with their setters keeps options only tests set from
// coming back on the facade.
func TestAPIContract(t *testing.T) {
	exported := packageExports(t)
	listed := contractNames(t)
	for name := range exported {
		if !listed[name] {
			t.Errorf("%s is exported but missing from DESIGN.md's API contract", name)
		}
	}
	for name := range listed {
		if !exported[name] {
			t.Errorf("DESIGN.md's API contract lists %s, which the package no longer exports", name)
		}
	}
}

// packageExports parses the package's non-test files and returns its
// exported top-level names, the exported methods of its exported types and
// the fields of Options.
func packageExports(t *testing.T) map[string]bool {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	names := map[string]bool{}
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				switch {
				case !d.Name.IsExported():
				case d.Recv == nil:
					names[d.Name.Name] = true
				default:
					recv := d.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if id, ok := recv.(*ast.Ident); ok && id.IsExported() {
						names[id.Name+"."+d.Name.Name] = true
					}
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							names[s.Name.Name] = true
						}
						if st, ok := s.Type.(*ast.StructType); ok && s.Name.Name == "Options" {
							for _, field := range st.Fields.List {
								for _, id := range field.Names {
									names["Options."+id.Name] = true
								}
							}
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							if id.IsExported() {
								names[id.Name] = true
							}
						}
					}
				}
			}
		}
	}
	if len(names) == 0 {
		t.Fatal("no exported identifiers found")
	}
	return names
}

// contractNames returns the names in the first column of the tables of
// DESIGN.md's "API contract" section.
func contractNames(t *testing.T) map[string]bool {
	t.Helper()
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## API contract")
	if !ok {
		t.Fatal(`DESIGN.md has no "## API contract" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	code := regexp.MustCompile("`([^`]+)`")
	names := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 || !strings.HasPrefix(line, "| `") {
			continue
		}
		for _, m := range code.FindAllStringSubmatch(cells[1], -1) {
			names[m[1]] = true
		}
	}
	if len(names) == 0 {
		t.Fatal("DESIGN.md's API contract lists no identifiers")
	}
	return names
}
