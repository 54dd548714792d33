package cookiewalk_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyExports lists the exported functions and methods under
// internal/ that only test files call, each with the reason it stays.
// Only test support shared across packages belongs here. A key is
// "pkg.Func" or "pkg.Type.Method", with pkg the directory below
// internal/; a bare "pkg" covers a whole test-support package.
var testOnlyExports = map[string]string{
	"fault":                       "the seeded chaos harness: imports testing and serves only tests",
	"webfarm.BannerTexts":         "core's farm-text tests check the detector against the farm's banner copy",
	"synthweb.Provider.ScriptURL": "render_ref_test.go's reference renderer builds the provider script tag",
	"categorize.Keywords":         "render_ref_test.go's reference renderer writes category keywords",
	"htmlx.EscapeText":            "the reference renderer in render_ref_test.go and dom's Render oracle escape text",
	"htmlx.EscapeAttr":            "dom's Render oracle escapes attribute values",
	"dom.NewElement":              "browser tests build detached DOM fixtures",
	"dom.Node.ByID":               "browser tests find injected elements by id",
}

// stdlibMethods are the methods the standard library calls through its
// own interfaces (error, errors.Unwrap, fmt.Stringer, io.ReadCloser,
// http.Handler, http.RoundTripper, net.Error), so no file of this
// module needs to name them.
var stdlibMethods = map[string]bool{
	"Error": true, "Unwrap": true, "String": true, "Read": true, "Close": true,
	"ServeHTTP": true, "RoundTrip": true, "Timeout": true,
}

// TestNoTestOnlyExports keeps one path per job: an exported function or
// method under internal/ must be named by some non-test file of the
// module or of bench/. A twin API that only tests call checks code the
// crawl never runs; move its tests onto the production path and delete
// it, or list it in testOnlyExports with the reason it is shared test
// support.
//
// The check is syntactic. A package-level function counts as called
// when its package names it bare or another package names it through
// an import of its directory. A method counts as called when its name
// is selected off a value (x.Name) or declared in an interface, in any
// non-test file, or when the standard library calls it (stdlibMethods).
func TestNoTestOnlyExports(t *testing.T) {
	type decl struct{ pkg, recv, name, pos string }
	var decls []decl
	funcUse := map[string]bool{}   // "pkg.Name" for package-level references
	methodUse := map[string]bool{} // method names selected or declared in an interface
	fset := token.NewFileSet()
	for _, root := range []string{".", "bench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if path != root && (path == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			pkg, inInternal := strings.CutPrefix(filepath.ToSlash(filepath.Dir(path)), "internal/")
			imports := map[string]string{} // local name → directory below internal/
			for _, im := range f.Imports {
				p, _ := strconv.Unquote(im.Path.Value)
				dir, ok := strings.CutPrefix(p, "cookiewalk/internal/")
				if !ok {
					continue
				}
				name := filepath.Base(dir)
				if im.Name != nil {
					name = im.Name.Name
				}
				imports[name] = dir
			}
			declared := map[*ast.Ident]bool{}
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				declared[fn.Name] = true
				if !inInternal || !fn.Name.IsExported() {
					continue
				}
				recv := ""
				if fn.Recv != nil {
					t := fn.Recv.List[0].Type
					if star, ok := t.(*ast.StarExpr); ok {
						t = star.X
					}
					// A generic receiver (T[P] or T[P, Q]) names its
					// type through the index expression.
					switch g := t.(type) {
					case *ast.IndexExpr:
						t = g.X
					case *ast.IndexListExpr:
						t = g.X
					}
					if id, ok := t.(*ast.Ident); ok {
						recv = id.Name
					}
				}
				decls = append(decls, decl{pkg, recv, fn.Name.Name, fset.Position(fn.Pos()).String()})
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.SelectorExpr:
					if id, ok := x.X.(*ast.Ident); ok {
						if dir, ok := imports[id.Name]; ok {
							funcUse[dir+"."+x.Sel.Name] = true
							return false
						}
					}
					methodUse[x.Sel.Name] = true
				case *ast.InterfaceType:
					for _, m := range x.Methods.List {
						for _, id := range m.Names {
							methodUse[id.Name] = true
						}
					}
				case *ast.Ident:
					if inInternal && !declared[x] {
						funcUse[pkg+"."+x.Name] = true
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(decls) == 0 {
		t.Fatal("no exported functions found under internal/")
	}
	needed := map[string]bool{}
	var bad []string
	for _, d := range decls {
		key := d.pkg + "." + d.name
		called := funcUse[key]
		if d.recv != "" {
			key = d.pkg + "." + d.recv + "." + d.name
			called = methodUse[d.name] || stdlibMethods[d.name]
		}
		if called {
			continue
		}
		if _, ok := testOnlyExports[key]; ok {
			needed[key] = true
			continue
		}
		if _, ok := testOnlyExports[d.pkg]; ok {
			needed[d.pkg] = true
			continue
		}
		bad = append(bad, d.pos+": "+key)
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Errorf("%s has no non-test caller", b)
	}
	for key := range testOnlyExports {
		if !needed[key] {
			t.Errorf("testOnlyExports[%q] is stale: it names nothing that only tests call", key)
		}
	}
}
