package soundness

// The atomics-discipline checker. internal/queue is lock-free by
// construction: each side owns its local offsets and its shared
// working-set pointer (stored only by that side), observes the peer only
// through atomic loads, and the fault injector and a peer's scrub of a
// corrected pointer are restricted to CompareAndSwap so neither can
// shadow an in-flight update. `go test -race` samples this protocol; this
// checker proves it, keyed on annotations in the queue source:
//
//	//queue:owned-by producer    field stored only by producer-side methods
//	//queue:owned-by consumer    field stored only by consumer-side methods
//	//queue:shared-atomic        lock-free by design; any side, atomically
//	//queue:counters             subtree exempt (per-item stat counters)
//	//queue:side producer        method runs on the producer's goroutine
//	//queue:side consumer        method runs on the consumer's goroutine
//	//queue:side injector        fault injection; may only CompareAndSwap
//	//queue:side init            runs outside transit: before it starts
//	                             or after it ends; exempt from ownership
//	                             checks
//
// The atomic types are sync/atomic's and the queue's word type, whose
// load/store/add/cas switch between atomic and plain memory by the
// queue's mode. A word's store and add count as stores; cas and flip (an
// XOR applied by a CAS loop) count as CompareAndSwap.
//
// Codes:
//
//	CS010  ownership breach: a store to an owned atomic field from the
//	       wrong side (or from a method with no declared side), a
//	       non-CAS store by the injector or the peer side, or any
//	       cross-side access to a plain (non-atomic) owned field
//	CS012  an atomic-typed field of an annotated struct carrying no
//	       //queue: annotation at all

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"

	"commguard/internal/srcload"
)

// Finding is one atomics-discipline defect.
type Finding struct {
	Pos     token.Position `json:"pos"`
	Code    string         `json:"code"`
	Message string         `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Code, f.Message)
}

// fieldDiscipline classifies one annotated field.
type fieldDiscipline int

const (
	fieldOwned fieldDiscipline = iota
	fieldSharedAtomic
	fieldCounters
)

type fieldInfo struct {
	discipline fieldDiscipline
	owner      string // "producer"/"consumer", for fieldOwned
	atomic     bool   // the declared type is one of the atomic types
	pos        token.Pos
}

// structInfo is the annotation table of one struct type.
type structInfo struct {
	name       string
	directives int // count of real //queue: field annotations
	fields     map[string]*fieldInfo
}

// annotated reports whether the struct opted into the discipline: at least
// one field carries a real //queue: annotation. Structs that merely contain
// atomics (per-item stat blocks, foreign types) are out of scope.
func (s *structInfo) annotated() bool { return s.directives > 0 }

// queueDirectives yields every "//queue:" candidate in the comment groups
// as space-split words. Callers parse each candidate and keep the first
// valid one, so prose that merely mentions the marker cannot mask a real
// directive on the same declaration.
func queueDirectives(groups ...*ast.CommentGroup) [][]string {
	var out [][]string
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			text := c.Text
			i := strings.Index(text, "//queue:")
			if i < 0 {
				continue
			}
			words := strings.Fields(text[i+len("//queue:"):])
			if len(words) > 0 {
				out = append(out, words)
			}
		}
	}
	return out
}

// wordType is the name of internal/queue's mode-switched word type.
const wordType = "word"

// typeMentionsAtomic reports whether a field type references sync/atomic
// (atomic.Uint32, []atomic.Uint64, *atomic.Bool, ...) or the word type
// (word, []word).
func typeMentionsAtomic(t ast.Expr) bool {
	found := false
	ast.Inspect(t, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			if id, isID := x.X.(*ast.Ident); isID && id.Name == "atomic" {
				found = true
			}
		case *ast.Ident:
			found = found || x.Name == wordType
		}
		return !found
	})
	return found
}

// collectStructs builds the annotation tables of every annotated struct in
// the files.
func collectStructs(files []*ast.File) map[string]*structInfo {
	out := map[string]*structInfo{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			info := &structInfo{name: ts.Name.Name, fields: map[string]*fieldInfo{}}
			for _, field := range st.Fields.List {
				var fi *fieldInfo
				for _, words := range queueDirectives(field.Doc, field.Comment) {
					if fi = parseFieldDirective(words); fi != nil {
						break
					}
				}
				if fi == nil {
					// CS012 needs the unannotated atomic fields too; record
					// them with a sentinel nil-discipline entry via the
					// atomic flag check at report time.
					if typeMentionsAtomic(field.Type) {
						for _, name := range field.Names {
							if name.Name == "_" {
								continue
							}
							info.fields[name.Name] = &fieldInfo{discipline: -1, atomic: true, pos: name.Pos()}
						}
					}
					continue
				}
				fi.atomic = typeMentionsAtomic(field.Type)
				for _, name := range field.Names {
					if name.Name == "_" {
						continue
					}
					fc := *fi
					fc.pos = name.Pos()
					info.fields[name.Name] = &fc
					info.directives++
				}
			}
			if info.annotated() {
				out[info.name] = info
			}
			return true
		})
	}
	return out
}

func parseFieldDirective(words []string) *fieldInfo {
	if len(words) == 0 {
		return nil
	}
	switch words[0] {
	case "owned-by":
		if len(words) > 1 && (words[1] == "producer" || words[1] == "consumer") {
			return &fieldInfo{discipline: fieldOwned, owner: words[1]}
		}
	case "shared-atomic":
		return &fieldInfo{discipline: fieldSharedAtomic}
	case "counters":
		return &fieldInfo{discipline: fieldCounters}
	}
	return nil
}

// methodSide extracts the declared //queue:side of a method ("" when
// undeclared).
func methodSide(fn *ast.FuncDecl) string {
	for _, words := range queueDirectives(fn.Doc) {
		if len(words) == 2 && words[0] == "side" {
			switch words[1] {
			case "producer", "consumer", "injector", "init":
				return words[1]
			}
		}
	}
	return ""
}

// recvStruct resolves a method receiver to its struct name ("" for
// non-struct or absent receivers).
func recvStruct(fn *ast.FuncDecl) (structName, recvName string) {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return "", ""
	}
	r := fn.Recv.List[0]
	t := r.Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	id, ok := t.(*ast.Ident)
	if !ok {
		return "", ""
	}
	name := ""
	if len(r.Names) > 0 {
		name = r.Names[0].Name
	}
	return id.Name, name
}

// storeOps are the mutating operations of sync/atomic's types and of
// the word type; casOps are the compare-and-swap ones, the only writes
// open to the injector and to the peer side.
var (
	storeOps = map[string]bool{"Store": true, "Add": true, "Swap": true, "Or": true, "And": true, "store": true, "add": true}
	casOps   = map[string]bool{"CompareAndSwap": true, "cas": true, "flip": true}
)

// checker runs the discipline over one parsed package's files.
type checker struct {
	fset     *token.FileSet
	structs  map[string]*structInfo
	findings []Finding
}

func (c *checker) report(pos token.Pos, code, format string, args ...any) {
	c.findings = append(c.findings, Finding{
		Pos:     c.fset.Position(pos),
		Code:    code,
		Message: fmt.Sprintf(format, args...),
	})
}

// checkStructs fires CS012 for atomic fields of annotated structs that
// carry no discipline annotation.
func (c *checker) checkStructs() {
	names := make([]string, 0, len(c.structs))
	for name := range c.structs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, sn := range names {
		info := c.structs[sn]
		fields := make([]string, 0, len(info.fields))
		for fname := range info.fields {
			fields = append(fields, fname)
		}
		sort.Strings(fields)
		for _, fname := range fields {
			fi := info.fields[fname]
			if fi.discipline == -1 && fi.atomic {
				c.report(fi.pos, "CS012",
					"atomic field %s.%s participates in the lock-free protocol but carries no //queue: annotation",
					sn, fname)
			}
		}
	}
}

// rootField unwraps an access expression to the receiver-rooted field it
// touches: q.buf[i] -> buf, q.stats.itemStores -> stats, q.filled -> filled.
// Returns "" for expressions not rooted at the receiver.
func rootField(e ast.Expr, recvName string) string {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if id.Name == recvName {
					return x.Sel.Name
				}
				return ""
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		default:
			return ""
		}
	}
}

// checkMethod verifies one method body against its receiver's table.
func (c *checker) checkMethod(fn *ast.FuncDecl) {
	structName, recvName := recvStruct(fn)
	info := c.structs[structName]
	if info == nil || !info.annotated() || fn.Body == nil || recvName == "" {
		return
	}
	side := methodSide(fn)
	method := fn.Name.Name

	// fieldOf resolves the annotated field an expression touches, skipping
	// counters subtrees.
	fieldOf := func(e ast.Expr) (string, *fieldInfo) {
		name := rootField(e, recvName)
		if name == "" {
			return "", nil
		}
		fi := info.fields[name]
		if fi == nil || fi.discipline == fieldCounters || fi.discipline == -1 {
			return "", nil
		}
		return name, fi
	}

	ownershipStore := func(pos token.Pos, fname string, fi *fieldInfo, op string) {
		if side == "init" {
			return
		}
		switch {
		case side == "":
			c.report(pos, "CS010",
				"method %s writes %s-owned field %s (%s) but declares no //queue:side", method, fi.owner, fname, op)
		case side == fi.owner || casOps[op]:
			// The owner writes freely; the peer and the injector by CAS.
		case side == "injector":
			c.report(pos, "CS010",
				"injector method %s must CompareAndSwap owned field %s, not %s: a blind store can shadow the owner's in-flight update", method, fname, op)
		default:
			c.report(pos, "CS010",
				"%s-side method %s writes %s-owned field %s (%s): only a CompareAndSwap is open to the peer", side, method, fi.owner, fname, op)
		}
	}

	// stored marks plain-owned write positions so the read pass below does
	// not report the same expression twice.
	stored := map[token.Pos]bool{}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.CallExpr:
			sel, ok := node.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			op := sel.Sel.Name
			fname, fi := fieldOf(sel.X)
			if fi != nil && fi.discipline == fieldOwned && (storeOps[op] || casOps[op]) {
				ownershipStore(node.Pos(), fname, fi, op)
			}
			return true
		case *ast.AssignStmt:
			for _, lhs := range node.Lhs {
				fname, fi := fieldOf(lhs)
				if fi != nil && fi.discipline == fieldOwned && !fi.atomic {
					stored[lhs.Pos()] = true
					ownershipStore(lhs.Pos(), fname, fi, "store")
				}
			}
			return true
		case *ast.IncDecStmt:
			fname, fi := fieldOf(node.X)
			if fi != nil && fi.discipline == fieldOwned && !fi.atomic {
				stored[node.X.Pos()] = true
				ownershipStore(node.X.Pos(), fname, fi, "store")
			}
			return true
		}
		return true
	})

	// Plain owned fields: loads are as racy as stores. Walk reads
	// separately so the message distinguishes them.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, isID := sel.X.(*ast.Ident)
		if !isID || id.Name != recvName {
			return true
		}
		fi := info.fields[sel.Sel.Name]
		if fi == nil || fi.discipline != fieldOwned || fi.atomic || stored[sel.Pos()] {
			return true
		}
		if side == "" || side == "init" || side == fi.owner {
			return true
		}
		c.report(sel.Pos(), "CS010",
			"%s-side method %s reads plain %s-owned field %s without synchronization", side, method, fi.owner, sel.Sel.Name)
		return true
	})
}

// run executes both passes over the files.
func (c *checker) run(files []*ast.File) {
	c.structs = collectStructs(files)
	c.checkStructs()
	for _, f := range files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok {
				c.checkMethod(fn)
			}
		}
	}
	sort.Slice(c.findings, func(i, j int) bool {
		a, b := c.findings[i].Pos, c.findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return c.findings[i].Code < c.findings[j].Code
	})
}

// CheckAtomics runs the discipline over the parsed files of one package
// (commguard-vet hands it internal/queue's). Annotation tables are built
// across all files, so methods in one file are checked against a struct
// declared in another (the queue struct lives in queue.go; batch.go adds
// methods).
func CheckAtomics(fset *token.FileSet, files []*ast.File) []Finding {
	c := &checker{fset: fset}
	c.run(files)
	return c.findings
}

// CheckAtomicsSource runs the discipline over one in-memory file (tests,
// fuzzing). The file stands alone as the whole package.
func CheckAtomicsSource(filename, src string) ([]Finding, error) {
	p, f, err := srcload.Source(filename, []byte(src))
	if err != nil {
		return nil, fmt.Errorf("soundness: %w", err)
	}
	return CheckAtomics(p.Fset, []*ast.File{f}), nil
}
