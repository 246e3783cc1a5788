package soundness

import (
	"strings"
	"testing"

	"commguard/internal/srcload"
)

// Atomics fixtures: each fires exactly its intended code.
const (
	// srcCS010: a consumer-side method stores a producer-owned atomic.
	srcCS010 = `package queue

import "sync/atomic"

type Q struct {
	prodOffset atomic.Uint32 //queue:owned-by producer
}

//queue:side consumer
func (q *Q) Steal() { q.prodOffset.Store(0) }
`
	// srcCS010Word: a consumer-side method stores a producer-owned word,
	// the queue's mode-switched atomic type.
	srcCS010Word = `package queue

type word struct{ v uint64 }

func (w *word) store(plain bool, v uint64) { w.v = v }

type Q struct {
	plain  bool
	filled word //queue:owned-by producer
}

//queue:side consumer
func (q *Q) Steal() { q.filled.store(q.plain, 0) }
`
	// srcCS012: an atomic field of an annotated struct with no annotation.
	srcCS012 = `package queue

import "sync/atomic"

type Q struct {
	prodOffset atomic.Uint32 //queue:owned-by producer
	rogue      atomic.Uint32
}
`
)

func atomicsFindings(t *testing.T, src string) []Finding {
	t.Helper()
	fs, err := CheckAtomicsSource("fixture.go", src)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func assertExactlyOne(t *testing.T, fs []Finding, code string) Finding {
	t.Helper()
	if len(fs) != 1 || fs[0].Code != code {
		t.Fatalf("want exactly one %s, got %v", code, fs)
	}
	return fs[0]
}

func TestRealQueuePackageIsClean(t *testing.T) {
	root, err := srcload.FindRoot()
	if err != nil {
		t.Fatal(err)
	}
	p, err := srcload.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	files, err := p.Files("internal/queue")
	if err != nil {
		t.Fatal(err)
	}
	if fs := CheckAtomics(p.Fset, files); len(fs) != 0 {
		t.Fatalf("internal/queue violates its own discipline: %v", fs)
	}
}

func TestCS010CrossSideStore(t *testing.T) {
	f := assertExactlyOne(t, atomicsFindings(t, srcCS010), "CS010")
	if want := "consumer-side method Steal writes producer-owned field prodOffset"; !contains(f.Message, want) {
		t.Errorf("message %q lacks %q", f.Message, want)
	}
}

func TestCS010SidelessStore(t *testing.T) {
	src := `package queue

import "sync/atomic"

type Q struct {
	prodOffset atomic.Uint32 //queue:owned-by producer
}

func (q *Q) Reset() { q.prodOffset.Store(0) }
`
	f := assertExactlyOne(t, atomicsFindings(t, src), "CS010")
	if !contains(f.Message, "declares no //queue:side") {
		t.Errorf("sideless store message: %q", f.Message)
	}
}

func TestCS010InjectorMustCAS(t *testing.T) {
	blind := `package queue

import "sync/atomic"

type Q struct {
	prodOffset atomic.Uint32 //queue:owned-by producer
}

//queue:side injector
func (q *Q) Corrupt() { q.prodOffset.Store(7) }
`
	assertExactlyOne(t, atomicsFindings(t, blind), "CS010")

	cas := `package queue

import "sync/atomic"

type Q struct {
	prodOffset atomic.Uint32 //queue:owned-by producer
}

//queue:side injector
func (q *Q) Corrupt() { q.prodOffset.CompareAndSwap(0, 1) }
`
	if fs := atomicsFindings(t, cas); len(fs) != 0 {
		t.Fatalf("injector CAS must be allowed, got %v", fs)
	}
}

func TestCS010PlainCrossSideRead(t *testing.T) {
	src := `package queue

type Q struct {
	cachedDrained uint32 //queue:owned-by producer
}

//queue:side consumer
func (q *Q) Spy() uint32 { return q.cachedDrained }
`
	f := assertExactlyOne(t, atomicsFindings(t, src), "CS010")
	if !contains(f.Message, "reads plain producer-owned field") {
		t.Errorf("plain read message: %q", f.Message)
	}
}

func TestCS010PlainCrossSideWriteReportsOnce(t *testing.T) {
	src := `package queue

type Q struct {
	cachedDrained uint32 //queue:owned-by producer
}

//queue:side consumer
func (q *Q) Smash() { q.cachedDrained = 9 }
`
	// The write must not be double-counted by the read pass.
	assertExactlyOne(t, atomicsFindings(t, src), "CS010")
}

func TestCS010WordWrongSideStore(t *testing.T) {
	f := assertExactlyOne(t, atomicsFindings(t, srcCS010Word), "CS010")
	if want := "consumer-side method Steal writes producer-owned field filled (store)"; !contains(f.Message, want) {
		t.Errorf("message %q lacks %q", f.Message, want)
	}
}

// wordFixture declares a queue whose owned fields are words, followed by
// the given methods.
func wordFixture(methods string) string {
	return `package queue

type word struct{ v uint64 }

func (w *word) store(plain bool, v uint64)         { w.v = v }
func (w *word) add(plain bool, d uint64)           { w.v += d }
func (w *word) cas(plain bool, old, nw uint64) bool { return true }
func (w *word) flip(plain bool, mask uint64)       { w.v ^= mask }

type Q struct {
	plain      bool
	filled     word //queue:owned-by producer
	prodOffset word //queue:owned-by producer
}
` + methods
}

// CAS is the only write open to the injector and to the peer side: a
// blind store or add from either is CS010, a cas or flip is clean, and
// the owner may do all four.
func TestCS010WordNonOwnersMustCAS(t *testing.T) {
	for _, tc := range []struct{ name, methods string }{
		{"injector store", `
//queue:side injector
func (q *Q) Corrupt() { q.prodOffset.store(q.plain, 7) }
`},
		{"injector add", `
//queue:side injector
func (q *Q) Corrupt() { q.filled.add(q.plain, 1) }
`},
		{"peer store", `
//queue:side consumer
func (q *Q) Scrub() { q.filled.store(q.plain, 0) }
`},
		{"peer add", `
//queue:side consumer
func (q *Q) Bump() { q.prodOffset.add(q.plain, 1) }
`},
	} {
		fs := atomicsFindings(t, wordFixture(tc.methods))
		if len(fs) != 1 || fs[0].Code != "CS010" {
			t.Errorf("%s: want exactly one CS010, got %v", tc.name, fs)
		}
	}

	clean := wordFixture(`
//queue:side injector
func (q *Q) Corrupt() {
	q.filled.flip(q.plain, 1)
	q.prodOffset.cas(q.plain, 0, 1)
}

//queue:side consumer
func (q *Q) Scrub(old uint64) bool { return q.filled.cas(q.plain, old, 0) }

//queue:side producer
func (q *Q) Advance() {
	q.filled.cas(q.plain, 0, 1)
	q.filled.store(q.plain, 2)
	q.prodOffset.add(q.plain, 1)
	q.prodOffset.flip(q.plain, 4)
}
`)
	if fs := atomicsFindings(t, clean); len(fs) != 0 {
		t.Fatalf("owner writes and non-owner CAS must be clean, got %v", fs)
	}
}

func TestCS010WordSidelessStore(t *testing.T) {
	fs := atomicsFindings(t, wordFixture(`
func (q *Q) Reset() { q.prodOffset.cas(q.plain, 3, 0) }
`))
	f := assertExactlyOne(t, fs, "CS010")
	if !contains(f.Message, "declares no //queue:side") {
		t.Errorf("sideless word store message: %q", f.Message)
	}
}

func TestCS012UnannotatedAtomic(t *testing.T) {
	f := assertExactlyOne(t, atomicsFindings(t, srcCS012), "CS012")
	if !contains(f.Message, "Q.rogue") {
		t.Errorf("CS012 message: %q", f.Message)
	}
}

func TestCS012UnannotatedWord(t *testing.T) {
	src := `package queue

type word struct{ v uint64 }

type Q struct {
	filled word //queue:owned-by producer
	slots  []word
}
`
	f := assertExactlyOne(t, atomicsFindings(t, src), "CS012")
	if !contains(f.Message, "Q.slots") {
		t.Errorf("CS012 message: %q", f.Message)
	}
}

func TestCS012SkipsStructsOutsideTheDiscipline(t *testing.T) {
	src := `package queue

import "sync/atomic"

type stats struct {
	hits atomic.Uint64
}
`
	if fs := atomicsFindings(t, src); len(fs) != 0 {
		t.Fatalf("unannotated structs are out of scope, got %v", fs)
	}
}

func TestProseMentionCannotMaskDirective(t *testing.T) {
	src := `package queue

type Q struct {
	// cachedDrained is the producer's view; see the //queue: annotations note.
	cachedDrained uint32 //queue:owned-by producer
}

//queue:side consumer
func (q *Q) Spy() uint32 { return q.cachedDrained }
`
	// Had the prose candidate masked the directive, the field would be
	// unannotated and the cross-side read would go unreported.
	assertExactlyOne(t, atomicsFindings(t, src), "CS010")
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }
