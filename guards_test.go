package mcpaxos

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// A guard is one architecture rule: it keeps a deletion of an earlier
// simplification deleted, one of the paper's accounting rules in place, or
// the simulator-only engines off the live path. Docs cite a rule by its name.
type guard struct {
	name, reason string
	check        func(c *guardCheck)
}

// TestArchitectureGuards runs every rule over the checkout. Rules about
// identifiers read code — declarations, references, selectors,
// composite-literal keys and import paths — never comments. Every path a rule
// names must exist, so a rename fails the rule instead of silencing it. A
// failure names file:line, the rule and its reason.
func TestArchitectureGuards(t *testing.T) {
	tr, err := loadTree()
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range guards {
		t.Run(g.name, func(t *testing.T) {
			c := &guardCheck{tree: tr}
			g.check(c)
			for _, f := range c.findings {
				t.Errorf("%s\n\tguard %q: %s", f, g.name, g.reason)
			}
		})
	}
	t.Logf("%d guards over %d Go files", len(guards), len(tr.files))
}

const (
	module   = "mcpaxos"
	allFiles = "." // every Go file of the checkout
	harness  = "internal/experiments"
)

var simOnly = []string{"internal/core", "internal/abstract", "internal/failure"}

// shipped are the programs built on the embedding API: the root package,
// cmd/mckv and the embedding examples.
var shipped = []string{".", "cmd/mckv", "examples/quickstart", "examples/kvstore", "examples/failover"}

var guards = []guard{
	{"One byte format", "no Go file imports encoding/gob", func(c *guardCheck) {
		c.noImports(c.in(true, allFiles), "encoding/gob")
	}},
	{"One codec and one frame", "varints and CRC tables live in internal/wire; a batch payload is wire's command sequence", func(c *guardCheck) {
		files := c.except(c.in(false, allFiles), "internal/wire")
		c.flagAll(refs(files, "encoding/binary", "Uvarint", "AppendUvarint"), "a varint outside internal/wire")
		c.flagAll(refs(files, "hash/crc32", "MakeTable"), "a CRC table outside internal/wire")
	}},
	{"One record per accept", "the tally record and the per-shard commit-stream wrapper stay deleted", func(c *guardCheck) {
		c.noIdents(c.in(true, allFiles), containing("TallyRec", "ShardedStable", "PutAllSharded", "StreamStats"))
	}},
	{"A restart is a rebuild on every host", "the recovery hook and the optional compaction interface stay deleted", func(c *guardCheck) {
		files := c.in(true, allFiles)
		c.noIdents(files, named("OnRecover"))
		c.noIdents(files, containing("Compacter"))
		c.flagAll(refs(files, module+"/internal/node", "Recoverable"), "node.Recoverable")
	}},
	{"The burst guard field stays deleted", "stamping is decided at the end of a mailbox burst, not by a flag", func(c *guardCheck) {
		files := c.in(false, "internal/classic")
		inspect(files, func(_ *goFile, _ *ast.FuncDecl, n ast.Node) {
			names, typ := declared(n)
			if isIdent(typ, "bool") {
				for _, name := range names {
					if name.Name == "burst" {
						c.flag(name.Pos(), "burst bool")
					}
				}
			}
		})
		c.noSelectors(files, "", "burst")
	}},
	{"One write per acceptor burst", "internal/classic calls PutAll only in the acceptor's burst commit", func(c *guardCheck) {
		c.calledOnce(c.in(false, "internal/classic"), "PutAll", "internal/classic/commit.go", "(*Acceptor).OnIdle")
	}},
	{"The stamping rule runs only at the end of a burst", "stampIfDue is called from Coordinator.OnIdle alone", func(c *guardCheck) {
		c.calledOnce(c.in(false, "internal/classic"), "stampIfDue", "internal/classic/ingress.go", "(*Coordinator).OnIdle")
	}},
	{"One claim path", "skipThrough stays deleted; skipBelowHi, which claims the slots below the learned high-water mark, is called from Coordinator.OnIdle alone, before stampIfDue", func(c *guardCheck) {
		c.noIdents(c.in(true, allFiles), containing("skipThrough"))
		classic := c.in(false, "internal/classic")
		skip, ok := c.calledOnce(classic, "skipBelowHi", "internal/classic/ingress.go", "(*Coordinator).OnIdle")
		if stamp := calls(classic, "", "stampIfDue"); ok && len(stamp) == 1 && stamp[0].pos < skip.pos {
			c.flag(skip.pos, "skipBelowHi called after stampIfDue (line %d)", c.fset.Position(stamp[0].pos).Line)
		}
	}},
	{"One coordinator API", "classic's host-set shard and test-only entry points stay deleted; core keeps its own MarkLearned", func(c *guardCheck) {
		files := c.except(c.in(false, allFiles), "internal/core")
		c.noIdents(files, containing("BecomeLeaderAt"))
		c.noFuncs(files, "(*Coordinator).MarkLearned")
		inspect(files, func(_ *goFile, _ *ast.FuncDecl, n ast.Node) {
			if as, ok := n.(*ast.AssignStmt); ok {
				for _, lhs := range as.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok && sel.Sel.Name == "Shard" {
						c.flag(sel.Pos(), "%s %s: a host-set shard", types.ExprString(sel), as.Tok)
					}
				}
			}
		})
	}},
	{"The coordinator stays split by concern", "no non-test file of internal/classic over 450 lines", func(c *guardCheck) {
		for _, f := range c.in(false, "internal/classic") {
			if n := bytes.Count(f.src, []byte("\n")); n > 450 {
				c.failf("%s:451: %d lines, over 450", f.path, n)
			}
		}
	}},
	{"One fast-round engine", "fast rounds are core configurations; fast and the generalized, genbcast and trace wrappers stay deleted", func(c *guardCheck) {
		c.noImports(c.in(true, allFiles), module+"/internal/fast", module+"/internal/generalized", module+"/internal/genbcast", module+"/internal/trace")
	}},
	{"Live path links no simulator-only engine", "deploy's deps exclude core, abstract, failure", func(c *guardCheck) {
		c.noDeps("internal/deploy", false, simOnly...)
	}},
	{"Shipped binaries link only the shipped stack", "the embedding API, cmd/mckv and the embedding examples link deploy's stack, not the harness, the simulator-only engines or the nemesis and its checker; examples/bank is the one exception, as it runs on core until it moves to classic, and sim joins the list once classic stops importing it", func(c *guardCheck) {
		forbidden := slices.Concat(simOnly, []string{"internal/nemesis", "internal/linearize", harness})
		for _, dir := range shipped {
			c.noDeps(dir, false, forbidden...)
		}
	}},
	{"One fault hook per clock", "the TCP transport injects nothing; deploy installs the injector once, on the node's network", func(c *guardCheck) {
		c.noDeps("internal/transport", false, "internal/faults")
		c.count("internal/deploy", "SetFaults calls", calls(c.in(false, "internal/deploy"), "", "SetFaults"), 1)
	}},
	{"One node per host", "a runtime.Network hosts one node; the in-place Restart and the re-entrant Do stay deleted, and the runtime's tests run no simulator-only engine", func(c *guardCheck) {
		files := c.in(true, "internal/runtime")
		c.noFuncs(files, "(*Network).Restart", "gid")
		c.noIdents(files, containing("loopGID"))
		c.noDeps("internal/runtime", true, simOnly...)
	}},
	{"One group commit", "the acceptor's burst; the WAL keeps no commit queue of its own", func(c *guardCheck) {
		files := c.in(false, "internal/wal")
		c.flagAll(refs(files, "sync", "Cond"), "sync.Cond")
		c.noIdents(files, containing("walBatch", "flushing"))
	}},
	{"One owner per command fact", "classic owns the command-ID layout and the fill no-op; the replica owns the apply order; one reply record; one pending map in the client", func(c *guardCheck) {
		c.noIdents(c.in(true, allFiles), named("FillCmd", "ReqOf"))
		c.noIdents(c.in(true, allFiles), containing("ExportedReply"))
		var noop []site
		inspect(c.in(false, allFiles), func(f *goFile, fd *ast.FuncDecl, n ast.Node) {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil && strings.Contains(s, "\x00noop") {
					noop = append(noop, site{f, lit.Pos(), fd})
				}
			}
		})
		c.onlyIn("the fill no-op's key literal", noop, "internal/classic/classic.go")
		c.noIdents(c.in(true, "internal/deploy/learner.go"), named("order"))
		var byID []site
		inspect(c.in(true, "internal/deploy/client.go"), func(f *goFile, fd *ast.FuncDecl, n ast.Node) {
			_, typ := declared(n)
			if m, ok := typ.(*ast.MapType); ok && isIdent(m.Key, "uint64") {
				byID = append(byID, site{f, n.Pos(), fd})
			}
		})
		c.count("internal/deploy/client.go", "declarations of a map[uint64] field or variable", byID, 1)
	}},
	{"One thread per node", "the learner takes no lock, the inspectors read through the node's mailbox, catch-up is learner code and internal/catchup stays deleted", func(c *guardCheck) {
		c.noImports(c.in(true, "internal/deploy/learner.go", "internal/deploy/catchup.go"), "sync", "sync/atomic")
		inspectGo := c.in(true, "internal/deploy/inspect.go")
		c.noSelectors(inspectGo, "l", "mu")
		c.noIdents(inspectGo, named("learners"))
		if _, err := os.Stat("internal/catchup"); err == nil {
			c.failf("internal/catchup: exists")
		}
		c.noImports(c.in(true, allFiles), module+"/internal/catchup")
	}},
	{"Compaction is always on", "a zero SnapshotEvery is the default interval, not an off-switch; E16's baseline is an interval longer than its run", func(c *guardCheck) {
		files := c.in(false, "internal/deploy", harness+"/live_compaction.go")
		inspect(files, func(_ *goFile, _ *ast.FuncDecl, n ast.Node) {
			b, ok := n.(*ast.BinaryExpr)
			if !ok {
				return
			}
			x, y := b.X, b.Y
			if b.Op == token.LSS {
				x, y = y, x
			} else if b.Op != token.GTR {
				return
			}
			if lit, ok := y.(*ast.BasicLit); ok && lit.Value == "0" && strings.HasSuffix(lastName(x), "every") {
				c.flag(b.Pos(), "%s: an interval tested for being set", types.ExprString(b))
			}
		})
		// The off-switch's doc text, not code: this one reads comments.
		for _, f := range files {
			if i := bytes.Index(f.src, []byte("pre-snapshot")); i >= 0 {
				c.failf("%s:%d: \"pre-snapshot\" behaviour described", f.path, 1+bytes.Count(f.src[:i], []byte("\n")))
			}
		}
	}},
	{"One driver per measurement", "in the harness, internal/experiments: E10–E13 drain through one simulator run; live latency is bench's steady_open, not a harness driver; E1–E9 and the ablations bring core up through one trial; E14 and the live nemesis enact and judge through one copy", func(c *guardCheck) {
		c.noIdents(c.in(true, allFiles), named("RunLiveLatency", "LiveResult"))
		drains := c.in(false, harness+"/experiments_batch.go", harness+"/experiments_wal.go", harness+"/experiments_shard.go", harness+"/experiments_mc.go", harness+"/experiments_drain.go")
		c.count("E10–E13's drivers", "classic.NewCluster calls", calls(drains, module+"/internal/classic", "NewCluster"), 1)
		c.count("experiments.go, ablations.go", "core.NewCluster calls", calls(c.in(false, harness+"/experiments.go", harness+"/ablations.go"), module+"/internal/core", "NewCluster"), 1)
		files := c.in(false, harness)
		c.count(harness, "nemesis.Apply calls", calls(files, module+"/internal/nemesis", "Apply"), 1)
		c.count(harness, "linearize.Check calls", calls(files, module+"/internal/linearize", "Check"), 1)
	}},
	{"One value equality", "cstruct.Cmd.Equal compares content; classic, the conflict relations, the merger and E14's judge (internal/experiments) keep no second definition", func(c *guardCheck) {
		c.noIdents(c.in(true, allFiles), named("sameValue"))
		files := c.except(c.in(false, "internal/classic", "internal/smr", "internal/cstruct", harness+"/experiments_nemesis.go"), "internal/cstruct/cmd.go")
		inspect(files, func(_ *goFile, _ *ast.FuncDecl, n ast.Node) {
			if b, ok := n.(*ast.BinaryExpr); ok && (b.Op == token.EQL || b.Op == token.NEQ) && isSel(b.X, "ID") && isSel(b.Y, "ID") {
				c.flag(b.Pos(), "%s: a value compared by ID", types.ExprString(b))
			}
		})
	}},
	{"One request key", "the ingress, the client, the stamp share and the harness (internal/experiments) key a request by its command ID, not by Propose's Client/Req", func(c *guardCheck) {
		c.noIdents(c.in(true, allFiles), named("reqKey"))
		c.noIdents(c.in(true, "internal/classic"), containing("bufKeys"))
		inspect(c.in(false, "internal/classic", "internal/deploy", harness), func(f *goFile, _ *ast.FuncDecl, n ast.Node) {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if n.Sel.Name == "Req" || (n.Sel.Name == "Client" && !pkgRef(f, n.X, module+"/internal/deploy") && !isIdent(n.X, "res")) {
					c.flag(n.Pos(), "%s: a request tag", types.ExprString(n))
				}
			case *ast.KeyValueExpr:
				if isIdent(n.Key, "Client") || isIdent(n.Key, "Req") {
					c.flag(n.Pos(), "%s: a request tag", types.ExprString(n.Key))
				}
			}
		})
	}},
	{"One slice per quorum", "classic counts each quorum in one short slice per instance or round; no type is a map of maps", func(c *guardCheck) {
		inspect(c.in(false, "internal/classic"), func(_ *goFile, _ *ast.FuncDecl, n ast.Node) {
			if m, ok := n.(*ast.MapType); ok {
				if _, ok := m.Value.(*ast.MapType); ok {
					c.flag(m.Pos(), "%s: a nested-map tally", types.ExprString(m))
				}
			}
		})
	}},
	{"No exported product name only tests use", "internal/ exports only what ships: every exported package-level name and method declared in a non-test file of an internal/ package the shipped programs link has a use in a non-test file (bench/, cmd/, examples/ and the root count); a method that satisfies an interface is exempt, and so is a method of a type the root package re-exports, since the root is the embedding API; the harness and simulator-only packages, which nothing shipped links, are outside the rule", func(c *guardCheck) {
		scope := map[string]bool{}
		for _, dir := range shipped {
			for d := range c.deps(dir, false) {
				scope[d] = strings.HasPrefix(d, "internal/")
			}
		}
		c.testOnlyExports(scope)
	}},
	{"One promise on the wire", "the codec carries only P1bMulti; the single-instance msg.P1b is core's, simulator-only", func(c *guardCheck) {
		c.flagAll(refs(c.in(false, "internal/transport"), module+"/internal/msg", "P1b"), "msg.P1b on the wire")
	}},
}

type goFile struct {
	path string // slash-separated, relative to the repo root
	test bool
	src  []byte
	ast  *ast.File
}

type tree struct {
	fset  *token.FileSet
	files []*goFile
}

// loadTree parses every Go file of the checkout, skipping dot-directories
// (.git, the benchmark's build cache) and the benchmark's outputs.
func loadTree() (*tree, error) {
	tr := &tree{fset: token.NewFileSet()}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		p = filepath.ToSlash(p)
		if d.IsDir() {
			if (p != "." && strings.HasPrefix(d.Name(), ".")) || p == "bench/out" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(tr.fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		tr.files = append(tr.files, &goFile{p, strings.HasSuffix(p, "_test.go"), src, f})
		return nil
	})
	return tr, err
}

type guardCheck struct {
	*tree
	findings []string
}

func (c *guardCheck) failf(format string, args ...any) {
	c.findings = append(c.findings, fmt.Sprintf(format, args...))
}

// flag records a finding at pos, as file:line.
func (c *guardCheck) flag(pos token.Pos, format string, args ...any) {
	p := c.fset.Position(pos)
	c.failf("%s:%d: %s", p.Filename, p.Line, fmt.Sprintf(format, args...))
}

// exists reports whether p, a path a rule names, is there, and records a
// finding if not.
func (c *guardCheck) exists(p string) bool {
	if p == allFiles {
		return true
	}
	if _, err := os.Stat(p); err != nil {
		c.failf("%s: named by the guard, but missing", p)
		return false
	}
	return true
}

// in returns the files under paths — a file, a directory (recursively) or
// allFiles — with test files only if tests is set.
func (c *guardCheck) in(tests bool, paths ...string) []*goFile {
	var out []*goFile
	for _, p := range paths {
		if c.exists(p) {
			for _, f := range c.files {
				if (tests || !f.test) && under(f.path, p) {
					out = append(out, f)
				}
			}
		}
	}
	return out
}

// except drops the files under paths.
func (c *guardCheck) except(files []*goFile, paths ...string) []*goFile {
	for _, p := range paths {
		if c.exists(p) {
			files = slices.DeleteFunc(slices.Clone(files), func(f *goFile) bool { return under(f.path, p) })
		}
	}
	return files
}

func under(file, p string) bool {
	if p == allFiles {
		return true
	}
	return file == p || strings.HasPrefix(file, p+"/")
}

// inspect calls fn on every node of files below the package clause, with the
// function declaration it sits in (nil outside one).
func inspect(files []*goFile, fn func(f *goFile, fd *ast.FuncDecl, n ast.Node)) {
	for _, f := range files {
		for _, d := range f.ast.Decls {
			fd, _ := d.(*ast.FuncDecl)
			ast.Inspect(d, func(n ast.Node) bool {
				if n != nil {
					fn(f, fd, n)
				}
				return true
			})
		}
	}
}

func named(names ...string) func(string) bool {
	return func(s string) bool { return slices.Contains(names, s) }
}

func containing(subs ...string) func(string) bool {
	return func(s string) bool {
		return slices.ContainsFunc(subs, func(sub string) bool { return strings.Contains(s, sub) })
	}
}

func (c *guardCheck) noIdents(files []*goFile, match func(string) bool) {
	inspect(files, func(_ *goFile, _ *ast.FuncDecl, n ast.Node) {
		if id, ok := n.(*ast.Ident); ok && match(id.Name) {
			c.flag(id.Pos(), "%s", id.Name)
		}
	})
}

func (c *guardCheck) noImports(files []*goFile, paths ...string) {
	for _, f := range files {
		for _, im := range f.ast.Imports {
			if p, _ := strconv.Unquote(im.Path.Value); slices.Contains(paths, p) {
				c.flag(im.Pos(), "imports %q", p)
			}
		}
	}
}

// noSelectors flags x.sel, or any selector .sel when x is empty.
func (c *guardCheck) noSelectors(files []*goFile, x, sel string) {
	inspect(files, func(_ *goFile, _ *ast.FuncDecl, n ast.Node) {
		if s, ok := n.(*ast.SelectorExpr); ok && s.Sel.Name == sel && (x == "" || isIdent(s.X, x)) {
			c.flag(s.Pos(), "%s", types.ExprString(s))
		}
	})
}

// noFuncs flags declarations of the functions named as funcName spells them.
func (c *guardCheck) noFuncs(files []*goFile, names ...string) {
	inspect(files, func(_ *goFile, _ *ast.FuncDecl, n ast.Node) {
		if fd, ok := n.(*ast.FuncDecl); ok && slices.Contains(names, funcName(fd)) {
			c.flag(fd.Pos(), "func %s", funcName(fd))
		}
	})
}

// noDeps flags each of forbidden (module-relative directories) that the
// package in dir links, with its own tests' imports when tests is set.
func (c *guardCheck) noDeps(dir string, tests bool, forbidden ...string) {
	if !c.exists(dir) {
		return
	}
	reached := c.deps(dir, tests)
	for _, f := range forbidden {
		h, ok := reached[f]
		if !ok {
			continue
		}
		chain := []string{f}
		for p := h.from; p != dir; p = reached[p].from {
			chain = append(chain, p)
		}
		slices.Reverse(chain)
		c.failf("%s:%d: %s links %s", filepath.ToSlash(h.at.Filename), h.at.Line, dir, strings.Join(chain, " → "))
	}
}

// A hop is how a package was reached: the importer and its import's position.
type hop struct {
	from string
	at   token.Position
}

// deps returns the module packages (relative directories) the package in
// dir links, itself included, with its own tests' imports when tests is set:
// the closure go list -deps [-test] prints, read with go/build.
func (c *guardCheck) deps(dir string, tests bool) map[string]hop {
	reached := map[string]hop{dir: {}}
	for queue := []string{dir}; len(queue) > 0; queue = queue[1:] {
		d := queue[0]
		p, err := build.ImportDir(d, 0)
		if err != nil {
			c.failf("%s: %v", d, err)
			continue
		}
		pos := []map[string][]token.Position{p.ImportPos}
		if tests && d == dir {
			pos = append(pos, p.TestImportPos, p.XTestImportPos)
		}
		for _, m := range pos {
			for _, im := range slices.Sorted(maps.Keys(m)) {
				rel, ok := strings.CutPrefix(im, module+"/")
				if im == module {
					rel, ok = ".", true
				}
				if _, seen := reached[rel]; ok && !seen {
					reached[rel] = hop{d, m[im][0]}
					queue = append(queue, rel)
				}
			}
		}
	}
	return reached
}

// A site is one place a rule looks at: a call, a literal, a declaration.
type site struct {
	f   *goFile
	pos token.Pos
	fd  *ast.FuncDecl // the function it sits in
}

func (c *guardCheck) flagAll(sites []site, what string) {
	for _, s := range sites {
		c.flag(s.pos, "%s", what)
	}
}

// count flags sites unless there are exactly want of them in scope.
func (c *guardCheck) count(scope, what string, sites []site, want int) bool {
	if len(sites) == want {
		return true
	}
	if len(sites) == 0 {
		c.failf("%s: no %s, want %d", scope, what, want)
	}
	for _, s := range sites {
		c.flag(s.pos, "one of %d %s in %s, want %d", len(sites), what, scope, want)
	}
	return false
}

// calledOnce checks that files call name exactly once, from the function fn
// in file, and returns that call.
func (c *guardCheck) calledOnce(files []*goFile, name, file, fn string) (site, bool) {
	sites := calls(files, "", name)
	if !c.count(path.Dir(file), "calls of "+name, sites, 1) {
		return site{}, false
	}
	s := sites[0]
	if s.f.path != file || funcName(s.fd) != fn {
		c.flag(s.pos, "%s called from %s, want %s in %s", name, funcName(s.fd), fn, file)
		return s, false
	}
	return s, true
}

// onlyIn checks that sites all lie in file, and that there is one at least.
func (c *guardCheck) onlyIn(what string, sites []site, file string) {
	if !slices.ContainsFunc(sites, func(s site) bool { return s.f.path == file }) {
		c.failf("%s: no %s", file, what)
	}
	for _, s := range sites {
		if s.f.path != file {
			c.flag(s.pos, "%s outside %s", what, file)
		}
	}
}

// calls returns the calls of name in files: pkg.name(…) through each file's
// import of importPath, or, with importPath empty, x.name(…) for any x and
// name(…).
func calls(files []*goFile, importPath, name string) []site {
	var out []site
	inspect(files, func(f *goFile, fd *ast.FuncDecl, n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		var hit bool
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			hit = fun.Sel.Name == name && (importPath == "" || pkgRef(f, fun.X, importPath))
		case *ast.Ident:
			hit = importPath == "" && fun.Name == name
		}
		if hit {
			out = append(out, site{f, call.Pos(), fd})
		}
	})
	return out
}

// refs returns the uses of importPath's names in files: pkg.name through the
// file's import, and, in the package's own files, the bare name.
func refs(files []*goFile, importPath string, names ...string) []site {
	dir, local := strings.CutPrefix(importPath, module+"/")
	var out []site
	inspect(files, func(f *goFile, fd *ast.FuncDecl, n ast.Node) {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if slices.Contains(names, n.Sel.Name) && pkgRef(f, n.X, importPath) {
				out = append(out, site{f, n.Pos(), fd})
			}
		case *ast.Ident:
			if local && path.Dir(f.path) == dir && slices.Contains(names, n.Name) {
				out = append(out, site{f, n.Pos(), fd})
			}
		}
	})
	return out
}

// pkgRef reports whether x names the package importPath in f: by the name f
// imports it under, or by the package's own name.
func pkgRef(f *goFile, x ast.Expr, importPath string) bool {
	if isIdent(x, path.Base(importPath)) {
		return true
	}
	for _, im := range f.ast.Imports {
		if p, _ := strconv.Unquote(im.Path.Value); p == importPath && im.Name != nil {
			return isIdent(x, im.Name.Name)
		}
	}
	return false
}

// funcName spells a declaration as "(*T).M" or "f".
func funcName(fd *ast.FuncDecl) string {
	switch {
	case fd == nil:
		return "package scope"
	case fd.Recv == nil:
		return fd.Name.Name
	}
	return "(" + types.ExprString(fd.Recv.List[0].Type) + ")." + fd.Name.Name
}

func lastName(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return x.Sel.Name
	}
	return ""
}

// declared returns the names and type of a field or a variable declaration.
func declared(n ast.Node) ([]*ast.Ident, ast.Expr) {
	switch n := n.(type) {
	case *ast.Field:
		return n.Names, n.Type
	case *ast.ValueSpec:
		return n.Names, n.Type
	}
	return nil, nil
}

func isIdent(x ast.Expr, name string) bool {
	id, ok := x.(*ast.Ident)
	return ok && id.Name == name
}

func isSel(x ast.Expr, name string) bool {
	s, ok := x.(*ast.SelectorExpr)
	return ok && s.Sel.Name == name
}

// testOnlyExports flags each exported package-level name and method declared
// in a non-test file of the packages in scope (relative directories) that no
// non-test file of the checkout uses. It type-checks every non-test package
// from source: the module's from the parsed tree, the standard library
// through go/importer's source importer with cgo off, so nothing runs a
// compiler. A method that satisfies an interface — one declared at package
// scope anywhere in that universe, or error — is exempt: it is called through
// the interface. So is a method of a type the root package re-exports under
// an alias: the root is the embedding API, and its methods are an embedder's
// to call.
func (c *guardCheck) testOnlyExports(scope map[string]bool) {
	tc := &typeChecker{guardCheck: c, pkgs: map[string]*types.Package{}, info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}}
	cgo := build.Default.CgoEnabled
	build.Default.CgoEnabled = false
	defer func() { build.Default.CgoEnabled = cgo }()
	tc.std = importer.ForCompiler(c.fset, "source", nil).(types.ImporterFrom)
	byDir := map[string]bool{}
	for _, f := range c.in(false, allFiles) {
		byDir[path.Dir(f.path)] = true
	}
	for _, d := range slices.Sorted(maps.Keys(byDir)) {
		if _, err := tc.Import(importPath(d)); err != nil {
			c.failf("%s: %v", d, err)
		}
	}
	// A use inside the object's own declaration — a recursive call, a method
	// of the type, its receiver — or in a blank "var _ I = T{}" assertion
	// does not count.
	own := map[types.Object][]ast.Node{}
	var blank []ast.Node
	for _, f := range c.in(false, allFiles) {
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				own[tc.info.Defs[d.Name]] = append(own[tc.info.Defs[d.Name]], d)
				if d.Recv != nil {
					if tn := recvType(tc.info, d); tn != nil {
						own[tn] = append(own[tn], d)
					}
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						own[tc.info.Defs[s.Name]] = append(own[tc.info.Defs[s.Name]], s)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.Name == "_" {
								blank = append(blank, s)
							} else {
								own[tc.info.Defs[n]] = append(own[tc.info.Defs[n]], s)
							}
						}
					}
				}
			}
		}
	}
	within := func(nodes []ast.Node, pos token.Pos) bool {
		return slices.ContainsFunc(nodes, func(n ast.Node) bool { return n.Pos() <= pos && pos < n.End() })
	}
	used := map[types.Object]bool{}
	for id, obj := range tc.info.Uses {
		obj = origin(obj)
		if !strings.HasSuffix(c.fset.File(id.Pos()).Name(), "_test.go") && !within(own[obj], id.Pos()) && !within(blank, id.Pos()) {
			used[obj] = true
		}
	}
	ifaces := map[string][]*types.Interface{} // by method name
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if it, ok := p.Scope().Lookup(name).Type().Underlying().(*types.Interface); ok {
				for i := range it.NumMethods() {
					ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], it)
				}
			}
		}
		for _, im := range p.Imports() {
			walk(im)
		}
	}
	for _, p := range tc.pkgs {
		walk(p)
	}
	ifaces["Error"] = append(ifaces["Error"], types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	satisfies := func(t types.Type, m string) bool {
		return slices.ContainsFunc(ifaces[m], func(it *types.Interface) bool {
			return types.Implements(t, it) || types.Implements(types.NewPointer(t), it)
		})
	}
	api := map[*types.Named]bool{}
	if root := tc.pkgs["."]; root != nil {
		for _, name := range root.Scope().Names() {
			if tn, ok := root.Scope().Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
				if named, ok := types.Unalias(tn.Type()).(*types.Named); ok {
					api[named] = true
				}
			}
		}
	}
	for _, d := range slices.Sorted(maps.Keys(tc.pkgs)) {
		if !scope[d] {
			continue
		}
		scope := tc.pkgs[d].Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !used[obj] {
				c.flag(obj.Pos(), "%s.%s: only tests use it", tc.pkgs[d].Name(), name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := range named.NumMethods() {
				m := named.Method(i)
				if m.Exported() && !used[m] && !api[named] && !satisfies(named, m.Name()) {
					c.flag(m.Pos(), "(%s).%s: only tests use it", name, m.Name())
				}
			}
		}
	}
}

type typeChecker struct {
	*guardCheck
	std  types.ImporterFrom
	pkgs map[string]*types.Package // the module's, by directory
	info *types.Info
}

func (tc *typeChecker) Import(p string) (*types.Package, error) {
	return tc.ImportFrom(p, "", 0)
}

func (tc *typeChecker) ImportFrom(p, dir string, mode types.ImportMode) (*types.Package, error) {
	d, ok := strings.CutPrefix(p, module+"/")
	if p == module {
		d, ok = ".", true
	}
	if !ok {
		return tc.std.ImportFrom(p, dir, mode)
	}
	if pkg := tc.pkgs[d]; pkg != nil {
		return pkg, nil
	}
	var files []*ast.File
	for _, f := range tc.files {
		if !f.test && path.Dir(f.path) == d {
			files = append(files, f.ast)
		}
	}
	pkg, err := (&types.Config{Importer: tc}).Check(p, tc.fset, files, tc.info)
	tc.pkgs[d] = pkg
	return pkg, err
}

func importPath(dir string) string {
	if dir == "." {
		return module
	}
	return module + "/" + dir
}

// origin maps an instantiated generic function, method or field to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// recvType returns the type name a method declaration's receiver names.
func recvType(info *types.Info, fd *ast.FuncDecl) types.Object {
	t := fd.Recv.List[0].Type
	if s, ok := t.(*ast.StarExpr); ok {
		t = s.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return info.Uses[id]
	}
	return nil
}
