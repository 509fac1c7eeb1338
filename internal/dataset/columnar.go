package dataset

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/sim"
)

// Columnar world files ("FDWC", v1), the one world-file format: a short
// preamble (magic + version) followed by self-framed sections,
// each [tag byte][uvarint payload length][payload]. Large tables —
// instances, users, graph adjacency, traces — are split across multiple
// fixed-budget chunk sections, so both Save and Load touch one section's
// worth of scratch memory at a time regardless of world size. Within a
// chunk the payload is column-major: every value of a field, then every
// value of the next, which keeps like bytes together. Integers are uvarint
// (zigzag where negative values are legal), each string carries its own
// length prefix, floats are fixed 8-byte LE.
//
// Compatibility rule: a reader accepts exactly its own version; any layout
// change bumps colVersion.

// colMagic opens every columnar world file.
const colMagic = "FDWC"

// colVersion is the current format version.
const colVersion = 1

// Section tags.
const (
	secHeader      byte = 1    // seed, days, table sizes, presence flags
	secASes        byte = 2    // the whole AS registry (≤ a few hundred rows)
	secInstances   byte = 3    // instance rows [start, count, columns]
	secUsers       byte = 4    // user rows [start, count, columns]
	secGraphHead   byte = 5    // graph id, node count, edge count
	secGraphRows   byte = 6    // graph id, start node, count, adjacency rows
	secTraceHead   byte = 7    // slots per day, trace count
	secTraceRows   byte = 8    // start trace, count, per-trace encodings
	secCertOutages byte = 9    // cert-expiry outage days, sorted by instance
	secEnd         byte = 0xFF // section count, for truncation detection
)

// Presence flags in the header section.
const (
	colFlagSocial     byte = 1 << 0
	colFlagFederation byte = 1 << 1
	colFlagTraces     byte = 1 << 2
)

// Graph ids inside graph sections.
const (
	gidSocial     = 0
	gidFederation = 1
)

// Chunking policy: row-count budgets for fixed-shape tables, a byte budget
// for variable ones (adjacency, traces). maxSectionBytes is the reader's
// hard acceptance cap; single rows (one instance, one trace) always fit it
// by orders of magnitude.
const (
	instChunkRows    = 2048
	userChunkRows    = 32768
	chunkTargetBytes = 256 << 10
	maxSectionBytes  = 8 << 20
)

// colDecodeBudget caps the total memory a file's header rows may commit the
// decoder to, so a corrupt or hostile header cannot OOM the process before
// any row data is validated. A package var (not const) so the fuzz target
// and tests can shrink it.
var colDecodeBudget = int64(8) << 30

// LoadStats reports the decoder's transient memory behaviour: how many
// sections the file held, the largest section payload, and the final
// capacity of the one scratch buffer every section was decoded through.
// ScratchCap is the peak decode memory beyond the world being built — the
// O(one section) bound the streaming design promises.
type LoadStats struct {
	Sections   int
	MaxSection int
	ScratchCap int
}

// ---------------------------------------------------------------------------
// Primitive reader (Load side): bounds-checked cursor with a sticky error,
// so row loops stay linear and every malformed input degrades to one
// descriptive failure instead of a panic.

type colReader struct {
	b   []byte
	off int
	err error
}

func (r *colReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *colReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("truncated varint at payload byte %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *colReader) zigzag() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (r *colReader) count(max int, what string) int {
	v := r.uvarint()
	if r.err == nil && v > uint64(max) {
		r.fail("%s count %d exceeds limit %d", what, v, max)
	}
	if r.err != nil {
		return 0
	}
	return int(v)
}

func (r *colReader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.b)-r.off) {
		r.fail("string of %d bytes overruns payload at byte %d", n, r.off)
		return ""
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

func (r *colReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b)-r.off {
		r.fail("%d bytes overrun payload at byte %d", n, r.off)
		return nil
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

func (r *colReader) bool() bool {
	b := r.take(1)
	if r.err != nil {
		return false
	}
	if b[0] > 1 {
		r.fail("bool byte %#x at payload byte %d", b[0], r.off-1)
		return false
	}
	return b[0] == 1
}

func (r *colReader) float64() float64 {
	b := r.take(8)
	if r.err != nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

func (r *colReader) done() bool { return r.err == nil && r.off == len(r.b) }

// ---------------------------------------------------------------------------
// The schema, written once: every table's layout is a function over a
// colCodec, and Save and Load both run it. A codec has one branch per side.

// colCodec is the cursor the schema runs on: Save appends a section's
// payload to buf, Load (load set) reads one through r.
type colCodec struct {
	load  bool
	buf   []byte
	r     colReader
	nInst int // Load: every instance id must index [0, nInst)
}

func zigzag[T ~int | ~int32 | ~int64](c *colCodec, v *T) {
	if c.load {
		*v = T(c.r.zigzag())
		return
	}
	x := int64(*v)
	c.buf = binary.AppendUvarint(c.buf, uint64(x)<<1^uint64(x>>63))
}

func str[S ~string](c *colCodec, v *S) {
	if c.load {
		*v = S(c.r.str())
		return
	}
	c.buf = binary.AppendUvarint(c.buf, uint64(len(*v)))
	c.buf = append(c.buf, string(*v)...)
}

func flag(c *colCodec, v *bool) {
	switch {
	case c.load:
		*v = c.r.bool()
	case *v:
		c.buf = append(c.buf, 1)
	default:
		c.buf = append(c.buf, 0)
	}
}

func float(c *colCodec, v *float64) {
	if c.load {
		*v = c.r.float64()
		return
	}
	c.buf = binary.LittleEndian.AppendUint64(c.buf, math.Float64bits(*v))
}

// count is a table size; Load refuses one above max.
func count(c *colCodec, v *int, max int, what string) {
	if c.load {
		*v = c.r.count(max, what)
		return
	}
	c.buf = binary.AppendUvarint(c.buf, uint64(*v))
}

// list is a length-prefixed run of elem values; an empty list loads as nil.
func list[T any](elem func(*colCodec, *T)) func(*colCodec, *[]T) {
	return func(c *colCodec, v *[]T) {
		if !c.load {
			c.buf = binary.AppendUvarint(c.buf, uint64(len(*v)))
		} else if k := c.r.count(len(c.r.b), "list element"); k > 0 {
			*v = make([]T, k)
		}
		for i := range *v {
			elem(c, &(*v)[i])
		}
	}
}

// instanceID is an index into the instance table. Load fails the section
// unless it indexes the table the header announced, so no reader that
// indexes one table by another can be handed an id out of range.
func instanceID(what string) func(*colCodec, *int32) {
	return func(c *colCodec, v *int32) {
		if !c.load {
			zigzag(c, v)
			return
		}
		id := c.r.zigzag()
		if c.r.err == nil && (id < 0 || id >= int64(c.nInst)) {
			c.r.fail("%s id %d out of range [0,%d)", what, id, c.nInst)
		}
		*v = int32(id)
	}
}

// col is one column: the field get picks out of every row, through codec.
func col[R, T any](c *colCodec, rows []R, get func(*R) *T, codec func(*colCodec, *T)) {
	for i := range rows {
		codec(c, get(&rows[i]))
	}
}

// header is the first section: seed, days, the three table sizes and the
// presence flags.
func header(c *colCodec, w *World, nInst, nUsers, nAS *int, flags *byte) {
	if c.load {
		w.Seed = c.r.uvarint()
	} else {
		c.buf = binary.AppendUvarint(c.buf, w.Seed)
	}
	zigzag(c, &w.Days)
	count(c, nInst, maxWorldRows, "instance")
	count(c, nUsers, maxWorldRows, "user")
	count(c, nAS, maxWorldRows, "AS")
	if !c.load {
		c.buf = append(c.buf, *flags)
	} else if b := c.r.take(1); c.r.err == nil {
		*flags = b[0]
	}
}

// asRow is one row of the AS section, which is row-major: the registry is a
// few hundred rows at most.
func asRow(c *colCodec, a *AS) {
	zigzag(c, &a.ASN)
	str(c, &a.Name)
	str(c, &a.Country)
	zigzag(c, &a.Rank)
	zigzag(c, &a.Peers)
}

func instanceColumns(c *colCodec, rows []Instance) {
	col(c, rows, func(r *Instance) *int32 { return &r.ID }, zigzag[int32])
	col(c, rows, func(r *Instance) *string { return &r.Domain }, str[string])
	col(c, rows, func(r *Instance) *Software { return &r.Software }, str[Software])
	col(c, rows, func(r *Instance) *string { return &r.Country }, str[string])
	col(c, rows, func(r *Instance) *int { return &r.ASN }, zigzag[int])
	col(c, rows, func(r *Instance) *string { return &r.IP }, str[string])
	col(c, rows, func(r *Instance) *string { return &r.CA }, str[string])
	col(c, rows, func(r *Instance) *bool { return &r.Open }, flag)
	col(c, rows, func(r *Instance) *bool { return &r.Categorized }, flag)
	col(c, rows, func(r *Instance) *[]Category { return &r.Categories }, list(str[Category]))
	col(c, rows, func(r *Instance) *[]Activity { return &r.Allowed }, list(str[Activity]))
	col(c, rows, func(r *Instance) *[]Activity { return &r.Prohibited }, list(str[Activity]))
	col(c, rows, func(r *Instance) *Operator { return &r.Operator }, str[Operator])
	col(c, rows, func(r *Instance) *[]int32 { return &r.Blocks }, list(instanceID("block")))
	col(c, rows, func(r *Instance) *int { return &r.CreatedDay }, zigzag[int])
	col(c, rows, func(r *Instance) *int { return &r.GoneDay }, zigzag[int])
	col(c, rows, func(r *Instance) *bool { return &r.BlocksCrawl }, flag)
	col(c, rows, func(r *Instance) *int { return &r.Users }, zigzag[int])
	col(c, rows, func(r *Instance) *int64 { return &r.Toots }, zigzag[int64])
	col(c, rows, func(r *Instance) *int64 { return &r.Boosts }, zigzag[int64])
	col(c, rows, func(r *Instance) *float64 { return &r.MaxWeeklyActivePct }, float)
	col(c, rows, func(r *Instance) *int { return &r.CertIssuedDay }, zigzag[int])
}

func userColumns(c *colCodec, rows []User) {
	col(c, rows, func(r *User) *int32 { return &r.ID }, zigzag[int32])
	col(c, rows, func(r *User) *int32 { return &r.Instance }, instanceID("user instance"))
	col(c, rows, func(r *User) *int { return &r.JoinDay }, zigzag[int])
	col(c, rows, func(r *User) *int { return &r.Toots }, zigzag[int])
	col(c, rows, func(r *User) *int { return &r.Boosts }, zigzag[int])
	col(c, rows, func(r *User) *bool { return &r.Private }, flag)
}

// certRow is one entry of the cert-outage section: an instance id, then
// the outage days. Entries are sorted by id, and an empty day list is not
// stored.
func certRow(c *colCodec, id *int32, days *[]int) {
	instanceID("cert-outage")(c, id)
	list(zigzag[int])(c, days)
}

// ---------------------------------------------------------------------------
// Save.

// sectionWriter frames finished section payloads onto the output stream.
// The payload buffer is reused across sections, so Save's transient memory
// is the largest single section.
type sectionWriter struct {
	w *bufio.Writer
	colCodec
	sections int
}

func (s *sectionWriter) flush(tag byte) error {
	if err := s.w.WriteByte(tag); err != nil {
		return err
	}
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(s.buf)))
	if _, err := s.w.Write(hdr[:n]); err != nil {
		return err
	}
	if _, err := s.w.Write(s.buf); err != nil {
		return err
	}
	s.sections++
	s.buf = s.buf[:0]
	return nil
}

// Save writes the world to out in the columnar format. It streams
// section-by-section: peak memory beyond the world itself is one section
// payload (≤ a few hundred KB) regardless of world size.
func (w *World) Save(out io.Writer) error {
	bw := bufio.NewWriterSize(out, 64<<10)
	if _, err := bw.WriteString(colMagic); err != nil {
		return err
	}
	var verBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(verBuf[:], colVersion)
	if _, err := bw.Write(verBuf[:n]); err != nil {
		return err
	}
	sw := &sectionWriter{w: bw, colCodec: colCodec{buf: make([]byte, 0, 64<<10)}}
	c := &sw.colCodec

	var flags byte
	if w.Social != nil {
		flags |= colFlagSocial
	}
	if w.Federation != nil {
		flags |= colFlagFederation
	}
	if w.Traces != nil {
		flags |= colFlagTraces
	}
	nInst, nUsers, nAS := len(w.Instances), len(w.Users), len(w.ASes)
	header(c, w, &nInst, &nUsers, &nAS, &flags)
	if err := sw.flush(secHeader); err != nil {
		return err
	}

	sw.buf = binary.AppendUvarint(sw.buf, uint64(nAS))
	for i := range w.ASes {
		asRow(c, &w.ASes[i])
	}
	if err := sw.flush(secASes); err != nil {
		return err
	}

	// Instance and user sections: the first row's index, the row count,
	// then the columns.
	for start := 0; start < nInst; start += instChunkRows {
		rows := w.Instances[start:min(start+instChunkRows, nInst)]
		sw.buf = binary.AppendUvarint(sw.buf, uint64(start))
		sw.buf = binary.AppendUvarint(sw.buf, uint64(len(rows)))
		instanceColumns(c, rows)
		if err := sw.flush(secInstances); err != nil {
			return err
		}
	}
	for start := 0; start < nUsers; start += userChunkRows {
		rows := w.Users[start:min(start+userChunkRows, nUsers)]
		sw.buf = binary.AppendUvarint(sw.buf, uint64(start))
		sw.buf = binary.AppendUvarint(sw.buf, uint64(len(rows)))
		userColumns(c, rows)
		if err := sw.flush(secUsers); err != nil {
			return err
		}
	}
	if err := saveGraphSections(sw, gidSocial, w.Social); err != nil {
		return err
	}
	if err := saveGraphSections(sw, gidFederation, w.Federation); err != nil {
		return err
	}

	if w.Traces != nil {
		ts := w.Traces
		zigzag(c, &ts.SlotsPerDay)
		sw.buf = binary.AppendUvarint(sw.buf, uint64(len(ts.Traces)))
		if err := sw.flush(secTraceHead); err != nil {
			return err
		}
		start := 0
		for start < len(ts.Traces) {
			chunkStart := start
			sw.buf = binary.AppendUvarint(sw.buf, uint64(chunkStart))
			countAt := len(sw.buf)
			sw.buf = append(sw.buf, 0, 0, 0, 0) // fixed 4-byte count patched below
			n := 0
			for start < len(ts.Traces) && (n == 0 || len(sw.buf) < chunkTargetBytes) {
				t := ts.Traces[start]
				sw.buf = binary.AppendUvarint(sw.buf, uint64(t.EncodedSize()))
				sw.buf = t.AppendBinary(sw.buf)
				start++
				n++
			}
			binary.LittleEndian.PutUint32(sw.buf[countAt:], uint32(n))
			if err := sw.flush(secTraceRows); err != nil {
				return err
			}
		}
	}

	ids := make([]int32, 0, len(w.CertOutageDays))
	for id, days := range w.CertOutageDays {
		if len(days) > 0 {
			ids = append(ids, id)
		}
	}
	if len(ids) > 0 {
		slices.Sort(ids)
		sw.buf = binary.AppendUvarint(sw.buf, uint64(len(ids)))
		for _, id := range ids {
			days := w.CertOutageDays[id]
			certRow(c, &id, &days)
		}
		if err := sw.flush(secCertOutages); err != nil {
			return err
		}
	}

	sw.buf = binary.AppendUvarint(sw.buf, uint64(sw.sections))
	if err := sw.flush(secEnd); err != nil {
		return err
	}
	return bw.Flush()
}

func saveGraphSections(sw *sectionWriter, gid byte, g *graph.CSR) error {
	if g == nil {
		return nil
	}
	sw.buf = append(sw.buf, gid)
	sw.buf = binary.AppendUvarint(sw.buf, uint64(g.NumNodes()))
	sw.buf = binary.AppendUvarint(sw.buf, uint64(g.NumEdges()))
	if err := sw.flush(secGraphHead); err != nil {
		return err
	}
	v, nodes := int32(0), int32(g.NumNodes())
	for v < nodes {
		sw.buf = append(sw.buf, gid)
		sw.buf = binary.AppendUvarint(sw.buf, uint64(v))
		countAt := len(sw.buf)
		sw.buf = append(sw.buf, 0, 0, 0, 0) // fixed 4-byte count patched below
		n := 0
		buf := sw.buf // a local, so the per-edge appends keep it in registers
		for v < nodes && (n == 0 || len(buf) < chunkTargetBytes) {
			row := g.Out(v)
			buf = binary.AppendUvarint(buf, uint64(len(row)))
			for _, t := range row {
				buf = binary.AppendUvarint(buf, uint64(uint32(t)))
			}
			v++
			n++
		}
		sw.buf = buf
		binary.LittleEndian.PutUint32(sw.buf[countAt:], uint32(n))
		if err := sw.flush(secGraphRows); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Load.

// colError wraps any decode failure with the format identity and the file
// offset of the offending section, per the descriptive-error contract.
func colError(off int, tag byte, err error) error {
	return fmt.Errorf("dataset: world file (%s v%d): section %#02x at offset %d: %w",
		colMagic, colVersion, tag, off, err)
}

// graphDecode accumulates one graph's adjacency rows across chunk sections.
type graphDecode struct {
	nodes, edges int
	out          [][]int32
	backing      []int32
	next         int // next node id expected
}

type colDecoder struct {
	w          *World
	c          colCodec // the schema's Load side; c.r is the section being read
	budget     int64
	nUsers     int
	nAS        int
	flags      byte
	seenHeader bool
	seenASes   bool
	seenCert   bool
	instRows   int
	userRows   int
	graphs     [2]*graphDecode
	traceCount int // -1 until the trace header arrives
	tracesSeen int
}

func (d *colDecoder) alloc(bytes int64, what string) error {
	d.budget -= bytes
	if d.budget < 0 {
		return fmt.Errorf("%s commits %d bytes, over the decode budget", what, bytes)
	}
	return nil
}

// Load reads a world written by Save. Corrupt or truncated input fails with
// an error naming the format, version and byte offset — never a partially
// populated world.
func Load(in io.Reader) (*World, error) {
	w, _, err := LoadWithStats(in)
	return w, err
}

// LoadWithStats is Load, also reporting decoder memory statistics so tests
// can assert the O(one section) peak-scratch bound.
func LoadWithStats(in io.Reader) (*World, LoadStats, error) {
	var stats LoadStats
	br := bufio.NewReaderSize(in, 64<<10)
	magic := make([]byte, len(colMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, stats, fmt.Errorf("dataset: world file: reading magic: %w", err)
	}
	if string(magic) != colMagic {
		return nil, stats, fmt.Errorf("dataset: world file: bad magic %q (want %q)", magic, colMagic)
	}
	off := len(colMagic)
	version, err := readUvarintCounted(br, &off)
	if err != nil {
		return nil, stats, fmt.Errorf("dataset: world file (%s): reading version: %w", colMagic, err)
	}
	if version != colVersion {
		return nil, stats, fmt.Errorf("dataset: world file (%s): unsupported version %d (this reader handles v%d)",
			colMagic, version, colVersion)
	}

	d := &colDecoder{w: &World{}, c: colCodec{load: true}, budget: colDecodeBudget, traceCount: -1}
	var scratch []byte
	for {
		secOff := off
		tag, err := br.ReadByte()
		if err != nil {
			return nil, stats, colError(secOff, 0, fmt.Errorf("reading section tag: %w", err))
		}
		off++
		size, err := readUvarintCounted(br, &off)
		if err != nil {
			return nil, stats, colError(secOff, tag, fmt.Errorf("reading section length: %w", err))
		}
		if size > maxSectionBytes {
			return nil, stats, colError(secOff, tag, fmt.Errorf("section length %d exceeds cap %d", size, maxSectionBytes))
		}
		if int(size) > cap(scratch) {
			scratch = make([]byte, size)
		}
		scratch = scratch[:size]
		if _, err := io.ReadFull(br, scratch); err != nil {
			return nil, stats, colError(secOff, tag, fmt.Errorf("section body truncated: %w", err))
		}
		off += int(size)
		stats.Sections++
		stats.MaxSection = max(stats.MaxSection, int(size))

		d.c.r = colReader{b: scratch}
		r := &d.c.r
		if tag == secEnd {
			want := r.uvarint()
			if r.err == nil && !r.done() {
				r.fail("trailing bytes")
			}
			if r.err != nil {
				return nil, stats, colError(secOff, tag, r.err)
			}
			if int(want) != stats.Sections-1 {
				return nil, stats, colError(secOff, tag,
					fmt.Errorf("file holds %d sections, end marker expects %d", stats.Sections-1, want))
			}
			if _, err := br.ReadByte(); err != io.EOF {
				return nil, stats, colError(off, tag, fmt.Errorf("trailing data after end marker"))
			}
			break
		}
		if err := d.section(tag, r); err != nil {
			return nil, stats, colError(secOff, tag, err)
		}
		if r.err != nil {
			return nil, stats, colError(secOff, tag, r.err)
		}
		if !r.done() {
			return nil, stats, colError(secOff, tag, fmt.Errorf("%d trailing bytes in section", len(r.b)-r.off))
		}
	}
	stats.ScratchCap = cap(scratch)
	w, err := d.finish()
	if err != nil {
		return nil, stats, fmt.Errorf("dataset: world file (%s v%d): %w", colMagic, colVersion, err)
	}
	return w, stats, nil
}

func readUvarintCounted(br *bufio.Reader, off *int) (uint64, error) {
	v, err := binary.ReadUvarint(&countingByteReader{br, off})
	return v, err
}

type countingByteReader struct {
	br  *bufio.Reader
	off *int
}

func (c *countingByteReader) ReadByte() (byte, error) {
	b, err := c.br.ReadByte()
	if err == nil {
		*c.off++
	}
	return b, err
}

// maxWorldRows bounds any single table's row count; generous next to the
// paper's 2.4M accounts but small enough that a hostile header cannot ask
// for absurd allocations.
const maxWorldRows = 1 << 28

func (d *colDecoder) section(tag byte, r *colReader) error {
	if !d.seenHeader && tag != secHeader {
		return fmt.Errorf("section before header")
	}
	switch tag {
	case secHeader:
		if d.seenHeader {
			return fmt.Errorf("duplicate header section")
		}
		d.seenHeader = true
		header(&d.c, d.w, &d.c.nInst, &d.nUsers, &d.nAS, &d.flags)
		if r.err != nil {
			return nil
		}
		if err := d.alloc(int64(d.c.nInst)*int64(unsafe.Sizeof(Instance{}))+
			int64(d.nUsers)*int64(unsafe.Sizeof(User{}))+
			int64(d.nAS)*int64(unsafe.Sizeof(AS{})), "header tables"); err != nil {
			return err
		}
		// nil stays nil so a round trip lands on the same world shape.
		if d.c.nInst > 0 {
			d.w.Instances = make([]Instance, d.c.nInst)
		}
		if d.nUsers > 0 {
			d.w.Users = make([]User, d.nUsers)
		}
		if d.nAS > 0 {
			d.w.ASes = make([]AS, d.nAS)
		}
	case secASes:
		if d.seenASes {
			return fmt.Errorf("duplicate AS section")
		}
		d.seenASes = true
		n := r.count(d.nAS, "AS row")
		if r.err == nil && n != d.nAS {
			return fmt.Errorf("AS section holds %d rows, header promised %d", n, d.nAS)
		}
		for i := 0; i < n && r.err == nil; i++ {
			asRow(&d.c, &d.w.ASes[i])
		}
	case secInstances:
		start, n, err := d.chunk(d.instRows, d.c.nInst, instChunkRows, "instance")
		if err != nil || r.err != nil {
			return err
		}
		instanceColumns(&d.c, d.w.Instances[start:start+n])
		if r.err == nil {
			d.instRows += n
		}
	case secUsers:
		start, n, err := d.chunk(d.userRows, d.nUsers, userChunkRows, "user")
		if err != nil || r.err != nil {
			return err
		}
		userColumns(&d.c, d.w.Users[start:start+n])
		if r.err == nil {
			d.userRows += n
		}
	case secGraphHead:
		gid, gd, err := d.graphFor(r)
		if err != nil {
			return err
		}
		if r.err != nil {
			return nil
		}
		if gd != nil {
			return fmt.Errorf("duplicate graph %d header", gid)
		}
		nodes := r.count(maxWorldRows, "graph node")
		edges := r.count(math.MaxInt32, "graph edge")
		if r.err != nil {
			return nil
		}
		// The social graph is indexed by user id and the federation graph by
		// instance id, so each must be exactly as large as its table.
		table := d.nUsers
		if gid == gidFederation {
			table = d.c.nInst
		}
		if nodes != table {
			return fmt.Errorf("graph %d has %d nodes, its table has %d rows", gid, nodes, table)
		}
		// What Load allocates for a graph: the decoded rows (a slice header
		// per node, an int32 per edge) and the CSR built from them (three
		// int64 offset arrays and a scatter cursor per node; out, in and the
		// twice-as-long merged array per edge).
		if err := d.alloc(int64(nodes)*(24+4*8)+int64(edges)*(4+4*4), "graph"); err != nil {
			return err
		}
		d.graphs[gid] = &graphDecode{
			nodes:   nodes,
			edges:   edges,
			out:     make([][]int32, nodes),
			backing: make([]int32, 0, edges),
		}
	case secGraphRows:
		gid, gd, err := d.graphFor(r)
		if err != nil {
			return err
		}
		if r.err != nil {
			return nil
		}
		if gd == nil {
			return fmt.Errorf("graph %d rows before its header", gid)
		}
		start := int(r.uvarint())
		cnt := r.take(4)
		if r.err != nil {
			return nil
		}
		n := int(binary.LittleEndian.Uint32(cnt))
		if start != gd.next || start+n > gd.nodes {
			return fmt.Errorf("graph %d chunk [%d,%d) out of order (have %d of %d nodes)",
				gid, start, start+n, gd.next, gd.nodes)
		}
		for v := start; v < start+n && r.err == nil; v++ {
			deg := r.count(gd.edges-len(gd.backing), "graph row edge")
			if r.err != nil {
				break
			}
			at := len(gd.backing)
			for k := 0; k < deg; k++ {
				t := r.uvarint()
				if r.err != nil {
					break
				}
				if t >= uint64(gd.nodes) {
					r.fail("edge target %d out of range [0,%d)", t, gd.nodes)
					break
				}
				gd.backing = append(gd.backing, int32(t))
			}
			gd.out[v] = gd.backing[at:len(gd.backing):len(gd.backing)]
		}
		if r.err == nil {
			gd.next = start + n
		}
	case secTraceHead:
		if d.traceCount >= 0 {
			return fmt.Errorf("duplicate trace header")
		}
		slotsPerDay := int(r.zigzag())
		n := r.count(maxWorldRows, "trace")
		if r.err != nil {
			return nil
		}
		d.traceCount = n
		d.w.Traces = &sim.TraceSet{SlotsPerDay: slotsPerDay, Traces: make([]*sim.Trace, n)}
	case secTraceRows:
		if d.traceCount < 0 {
			return fmt.Errorf("trace rows before trace header")
		}
		start := int(r.uvarint())
		cnt := r.take(4)
		if r.err != nil {
			return nil
		}
		n := int(binary.LittleEndian.Uint32(cnt))
		if start != d.tracesSeen || start+n > d.traceCount {
			return fmt.Errorf("trace chunk [%d,%d) out of order (have %d of %d traces)",
				start, start+n, d.tracesSeen, d.traceCount)
		}
		for i := start; i < start+n && r.err == nil; i++ {
			sz := r.count(len(r.b), "trace byte")
			body := r.take(sz)
			if r.err != nil {
				break
			}
			t := new(sim.Trace)
			if err := t.UnmarshalBinary(body); err != nil {
				return fmt.Errorf("trace %d: %w", i, err)
			}
			d.w.Traces.Traces[i] = t
		}
		if r.err == nil {
			d.tracesSeen = start + n
		}
	case secCertOutages:
		if d.seenCert {
			return fmt.Errorf("duplicate cert-outage section")
		}
		d.seenCert = true
		n := r.count(d.c.nInst, "cert-outage instance")
		if r.err == nil && n > 0 {
			d.w.CertOutageDays = make(map[int32][]int, n)
		}
		prev := int32(-1)
		for i := 0; i < n && r.err == nil; i++ {
			var id int32
			var days []int
			certRow(&d.c, &id, &days)
			if r.err == nil && id <= prev {
				r.fail("cert-outage ids not strictly ascending at entry %d", i)
			}
			if r.err == nil && len(days) > 0 {
				d.w.CertOutageDays[id] = days
			}
			prev = id
		}
	default:
		return fmt.Errorf("unknown section tag")
	}
	return nil
}

// chunk reads an instance or user section's first row and row count, and
// fails unless the section continues its table where the last one ended.
func (d *colDecoder) chunk(have, table, chunkRows int, what string) (start, n int, err error) {
	start = int(d.c.r.uvarint())
	n = d.c.r.count(chunkRows, "chunk row")
	if d.c.r.err == nil && (start != have || start+n > table) {
		err = fmt.Errorf("%s chunk [%d,%d) out of order (have %d of %d rows)", what, start, start+n, have, table)
	}
	return start, n, err
}

func (d *colDecoder) graphFor(r *colReader) (int, *graphDecode, error) {
	b := r.take(1)
	if r.err != nil {
		return 0, nil, nil
	}
	gid := int(b[0])
	if gid != gidSocial && gid != gidFederation {
		return 0, nil, fmt.Errorf("unknown graph id %d", gid)
	}
	if gid == gidSocial && d.flags&colFlagSocial == 0 ||
		gid == gidFederation && d.flags&colFlagFederation == 0 {
		return 0, nil, fmt.Errorf("graph %d section but header flags %#x do not announce it", gid, d.flags)
	}
	return gid, d.graphs[gid], nil
}

// finish validates that every table announced by the header arrived in
// full, then assembles the World.
func (d *colDecoder) finish() (*World, error) {
	if !d.seenHeader {
		return nil, fmt.Errorf("no header section")
	}
	if !d.seenASes {
		return nil, fmt.Errorf("AS section missing")
	}
	if d.instRows != d.c.nInst {
		return nil, fmt.Errorf("instance rows incomplete: %d of %d", d.instRows, d.c.nInst)
	}
	if d.userRows != d.nUsers {
		return nil, fmt.Errorf("user rows incomplete: %d of %d", d.userRows, d.nUsers)
	}
	for gid, want := range []byte{colFlagSocial, colFlagFederation} {
		gd := d.graphs[gid]
		if d.flags&want == 0 {
			continue
		}
		if gd == nil {
			return nil, fmt.Errorf("graph %d announced but missing", gid)
		}
		if gd.next != gd.nodes {
			return nil, fmt.Errorf("graph %d rows incomplete: %d of %d nodes", gid, gd.next, gd.nodes)
		}
		if len(gd.backing) != gd.edges {
			return nil, fmt.Errorf("graph %d edge count mismatch: header %d, rows %d", gid, gd.edges, len(gd.backing))
		}
		g := graph.FromRows(gd.out)
		if gid == gidSocial {
			d.w.Social = g
		} else {
			d.w.Federation = g
		}
	}
	if d.flags&colFlagTraces != 0 {
		if d.traceCount < 0 {
			return nil, fmt.Errorf("traces announced but missing")
		}
		if d.tracesSeen != d.traceCount {
			return nil, fmt.Errorf("traces incomplete: %d of %d", d.tracesSeen, d.traceCount)
		}
	} else if d.traceCount >= 0 {
		return nil, fmt.Errorf("trace sections present but header flags %#x do not announce them", d.flags)
	}
	return d.w, nil
}
