package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"dlearn/internal/logic"
)

// The snapshot wire format, version 3:
//
//	magic   "DLSNAP"            6 bytes
//	version uint16 big-endian   2 bytes
//	strings string table        uvarint count, then per string uvarint length + bytes
//	payload                     varint-framed values, see below
//	crc32   IEEE, big-endian    4 bytes, over everything before it
//
// Every string of the payload — term names, predicates, repair groups — is
// interned into the string table (in first-encounter order of the payload
// walk) and referenced by uvarint ID. Terms pack the variable flag into the
// low bit of the ID: uvarint(id<<1 | var). Ground bottom clauses repeat the
// same constants across examples relentlessly, so the table writes each
// distinct value once.
//
// The payload is a deterministic depth-first serialization of an ExampleSet:
// per example its ground clause, its CFD-only expansion clauses and its full
// repaired clauses; integers as uvarints, strings as table IDs, slices
// count-prefixed. Only clauses are stored: the subsumption indexes over them
// are cheap to rebuild on load, the repair expansions are not. Determinism
// matters beyond aesthetics: encode(decode(encode(x))) is byte-identical, so
// snapshot files can be compared and deduplicated by content, and the
// round-trip property is testable exactly.
//
// Version bumps are cheap — Decode rejects unknown versions and the caller
// falls back to a fresh preparation — so the format can evolve without
// migration code.

const (
	codecMagic   = "DLSNAP"
	codecVersion = 3
)

// ExampleSnapshot is the persistable form of one prepared coverage example:
// its ground bottom clause, the clauses of its CFD-only repair expansion and
// the clauses of its full repair expansion. coverage.Example converts to and
// from this form, rebuilding the subsumption preparations on load.
type ExampleSnapshot struct {
	Ground   logic.Clause
	CFDExp   []logic.Clause
	Repaired []logic.Clause
}

// ExampleSet is a whole training set of prepared examples — what one
// learning run loads or prepares in one step.
type ExampleSet struct {
	Pos []ExampleSnapshot
	Neg []ExampleSnapshot
}

// EncodeExampleSet serializes the set in the versioned binary format. The
// payload is encoded first so the string table is complete (in
// first-encounter order), then the file is assembled around it.
func EncodeExampleSet(set ExampleSet) []byte {
	e := &encoder{buf: make([]byte, 0, 1<<16), table: make(map[string]uint32)}
	e.exampleList(set.Pos)
	e.exampleList(set.Neg)

	tableSize := binary.MaxVarintLen64
	for _, s := range e.order {
		tableSize += binary.MaxVarintLen64 + len(s)
	}
	out := make([]byte, 0, len(codecMagic)+2+tableSize+len(e.buf)+4)
	out = append(out, codecMagic...)
	out = binary.BigEndian.AppendUint16(out, codecVersion)
	out = binary.AppendUvarint(out, uint64(len(e.order)))
	for _, s := range e.order {
		out = binary.AppendUvarint(out, uint64(len(s)))
		out = append(out, s...)
	}
	out = append(out, e.buf...)
	return binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// DecodeExampleSet parses a snapshot, verifying the magic, version and
// checksum first so a truncated or corrupted file — or a snapshot written by
// an older codec — fails fast with an error instead of yielding garbage
// clauses; the caller falls back to a fresh preparation and writes the
// current format back. Strings are shared through the table and literals are
// interned during decoding: structurally identical literals across all
// examples of the set share one backing structure, which is what lets
// paper-scale runs hold hundreds of prepared examples with heavily
// overlapping bottom clauses in memory.
func DecodeExampleSet(data []byte) (ExampleSet, error) {
	if len(data) < len(codecMagic)+2+4 {
		return ExampleSet{}, fmt.Errorf("persist: snapshot truncated (%d bytes)", len(data))
	}
	if string(data[:len(codecMagic)]) != codecMagic {
		return ExampleSet{}, fmt.Errorf("persist: bad snapshot magic")
	}
	if v := binary.BigEndian.Uint16(data[len(codecMagic):]); v != codecVersion {
		return ExampleSet{}, fmt.Errorf("persist: unsupported snapshot version %d (want %d)", v, codecVersion)
	}
	body, sum := data[:len(data)-4], binary.BigEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return ExampleSet{}, fmt.Errorf("persist: snapshot checksum mismatch")
	}
	d := &decoder{data: body, off: len(codecMagic) + 2, in: newInterner()}
	d.stringTable()
	var set ExampleSet
	set.Pos = d.exampleList()
	set.Neg = d.exampleList()
	if d.err != nil {
		return ExampleSet{}, d.err
	}
	if d.off != len(body) {
		return ExampleSet{}, fmt.Errorf("persist: %d trailing bytes after snapshot payload", len(body)-d.off)
	}
	return set, nil
}

// encoder appends values to a growing buffer, interning every string into a
// deterministic first-encounter-order table. All writes are infallible.
type encoder struct {
	buf   []byte
	table map[string]uint32
	order []string
}

func (e *encoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// strID interns a string into the table, assigning the next dense ID.
func (e *encoder) strID(s string) uint32 {
	if id, ok := e.table[s]; ok {
		return id
	}
	id := uint32(len(e.order))
	e.table[s] = id
	e.order = append(e.order, s)
	return id
}

func (e *encoder) str(s string) {
	e.uvarint(uint64(e.strID(s)))
}

func (e *encoder) boolean(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// term packs the variable flag into the low bit of the name's table ID.
func (e *encoder) term(t logic.Term) {
	v := uint64(e.strID(t.Name)) << 1
	if t.Var {
		v |= 1
	}
	e.uvarint(v)
}

func (e *encoder) literal(l logic.Literal) {
	e.uvarint(uint64(l.Kind))
	e.str(l.Pred)
	e.uvarint(uint64(len(l.Args)))
	for _, a := range l.Args {
		e.term(a)
	}
	e.uvarint(uint64(len(l.Cond)))
	for _, c := range l.Cond {
		e.uvarint(uint64(c.Op))
		e.term(c.L)
		e.term(c.R)
	}
	e.uvarint(uint64(l.Origin))
	e.str(l.Group)
	e.boolean(l.Induced)
}

func (e *encoder) clause(c logic.Clause) {
	e.literal(c.Head)
	e.uvarint(uint64(len(c.Body)))
	for _, l := range c.Body {
		e.literal(l)
	}
}

func (e *encoder) clauseList(cs []logic.Clause) {
	e.uvarint(uint64(len(cs)))
	for _, c := range cs {
		e.clause(c)
	}
}

func (e *encoder) example(ex ExampleSnapshot) {
	e.clause(ex.Ground)
	e.clauseList(ex.CFDExp)
	e.clauseList(ex.Repaired)
}

func (e *encoder) exampleList(exs []ExampleSnapshot) {
	e.uvarint(uint64(len(exs)))
	for _, ex := range exs {
		e.example(ex)
	}
}

// decoder reads the payload sequentially, latching the first error; every
// read after an error is a cheap no-op, so call sites stay unconditional.
type decoder struct {
	data  []byte
	off   int
	err   error
	table []string
	in    *interner
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("persist: "+format, args...)
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		d.fail("truncated uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// count reads a collection length and bounds it by the bytes left: every
// element takes at least one byte, so a larger count can only come from a
// hostile snapshot, and is rejected before it reaches make.
func (d *decoder) count() int {
	v := d.uvarint()
	if left := uint64(len(d.data) - d.off); v > left {
		d.fail("collection length %d exceeds the %d bytes left", v, left)
		return 0
	}
	return int(v)
}

// enum reads a uvarint enumeration value and rejects anything above max.
func (d *decoder) enum(max int, what string) int {
	v := d.uvarint()
	if v > uint64(max) {
		d.fail("unknown %s %d", what, v)
		return 0
	}
	return int(v)
}

// stringTable reads the table every payload string references by ID.
func (d *decoder) stringTable() {
	n := d.count()
	if d.err != nil || n == 0 {
		return
	}
	d.table = make([]string, n)
	for i := range d.table {
		m := d.count()
		if d.err != nil {
			return
		}
		if d.off+m > len(d.data) {
			d.fail("truncated string table entry at offset %d", d.off)
			return
		}
		d.table[i] = string(d.data[d.off : d.off+m])
		d.off += m
	}
}

// tableString resolves a string-table ID.
func (d *decoder) tableString(id uint64) string {
	if d.err != nil {
		return ""
	}
	if id >= uint64(len(d.table)) {
		d.fail("string id %d out of table range %d", id, len(d.table))
		return ""
	}
	return d.table[id]
}

func (d *decoder) str() string {
	return d.tableString(d.uvarint())
}

func (d *decoder) boolean() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.data) {
		d.fail("truncated bool at offset %d", d.off)
		return false
	}
	b := d.data[d.off]
	d.off++
	if b > 1 {
		d.fail("invalid bool byte %d at offset %d", b, d.off-1)
		return false
	}
	return b == 1
}

func (d *decoder) term() logic.Term {
	v := d.uvarint()
	return logic.Term{Name: d.tableString(v >> 1), Var: v&1 == 1}
}

func (d *decoder) literal() logic.Literal {
	start := d.off
	var l logic.Literal
	l.Kind = logic.Kind(d.enum(int(logic.RepairLit), "literal kind"))
	l.Pred = d.str()
	if n := d.count(); n > 0 {
		l.Args = make([]logic.Term, n)
		for i := range l.Args {
			l.Args[i] = d.term()
		}
	}
	if n := d.count(); n > 0 {
		l.Cond = make([]logic.Condition, n)
		for i := range l.Cond {
			l.Cond[i] = logic.Condition{Op: logic.CondOp(d.enum(int(logic.CondSim), "condition operator")), L: d.term(), R: d.term()}
		}
	}
	l.Origin = logic.RepairOrigin(d.enum(int(logic.OriginCFD), "repair origin"))
	l.Group = d.str()
	l.Induced = d.boolean()
	// Built-in and repair literals have exactly two arguments; subsumption
	// preparation indexes both, so any other shape is rejected here.
	if l.Kind != logic.RelationLit && len(l.Args) != 2 {
		d.fail("%s literal with %d arguments at offset %d", l.Kind, len(l.Args), start)
	}
	if d.err != nil {
		return l
	}
	// Intern on the literal's encoded bytes: table IDs are deterministic, so
	// byte equality is structural equality, and repeated literals across the
	// set share one Args/Cond backing.
	return d.in.literal(d.data[start:d.off], l)
}

func (d *decoder) clause() logic.Clause {
	var c logic.Clause
	c.Head = d.literal()
	if n := d.count(); n > 0 {
		c.Body = make([]logic.Literal, n)
		for i := range c.Body {
			c.Body[i] = d.literal()
		}
	}
	return c
}

func (d *decoder) clauseList() []logic.Clause {
	n := d.count()
	if n == 0 {
		return nil
	}
	out := make([]logic.Clause, n)
	for i := range out {
		out[i] = d.clause()
	}
	return out
}

func (d *decoder) example() ExampleSnapshot {
	var ex ExampleSnapshot
	ex.Ground = d.clause()
	ex.CFDExp = d.clauseList()
	ex.Repaired = d.clauseList()
	return ex
}

func (d *decoder) exampleList() []ExampleSnapshot {
	n := d.count()
	if n == 0 {
		return nil
	}
	out := make([]ExampleSnapshot, n)
	for i := range out {
		out[i] = d.example()
	}
	return out
}

// interner dedupes decoded literals for the lifetime of one DecodeExampleSet
// call, keyed by their encoded bytes. Ground bottom clauses of different
// examples share most of their literals (the same database tuples reached
// from different seeds), and the expansion clauses of one example repeat
// most literals of its ground clause, so interning collapses the dominant
// share of decoded allocations. Strings are already shared through the table.
type interner struct {
	literals map[string]logic.Literal
}

func newInterner() *interner {
	return &interner{literals: make(map[string]logic.Literal)}
}

// literal returns the canonical copy of a literal, keyed by its encoded
// bytes. The decoded literal is passed in so first occurrences need no
// re-decoding.
func (in *interner) literal(enc []byte, l logic.Literal) logic.Literal {
	if canon, ok := in.literals[string(enc)]; ok {
		return canon
	}
	in.literals[string(enc)] = l
	return l
}
