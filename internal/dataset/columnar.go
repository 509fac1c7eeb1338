package dataset

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

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
// value of the next, which keeps like bytes together and the codecs
// branch-free. Integers are uvarint (zigzag where negative values are
// legal), strings are length-prefixed, floats are fixed 8-byte LE.
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
// can shrink it.
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
// Primitive append codecs (Save side).

func appendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

func appendZigzag(dst []byte, v int64) []byte {
	return binary.AppendUvarint(dst, uint64(v)<<1^uint64(v>>63))
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendFloat64(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
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
// Save.

// sectionWriter frames finished section payloads onto the output stream.
// The payload buffer is reused across sections, so Save's transient memory
// is the largest single section.
type sectionWriter struct {
	w        *bufio.Writer
	buf      []byte
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
	sw := &sectionWriter{w: bw, buf: make([]byte, 0, 64<<10)}

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
	sw.buf = appendUvarint(sw.buf, w.Seed)
	sw.buf = appendZigzag(sw.buf, int64(w.Days))
	sw.buf = appendUvarint(sw.buf, uint64(len(w.Instances)))
	sw.buf = appendUvarint(sw.buf, uint64(len(w.Users)))
	sw.buf = appendUvarint(sw.buf, uint64(len(w.ASes)))
	sw.buf = append(sw.buf, flags)
	if err := sw.flush(secHeader); err != nil {
		return err
	}

	sw.buf = appendUvarint(sw.buf, uint64(len(w.ASes)))
	for i := range w.ASes {
		a := &w.ASes[i]
		sw.buf = appendZigzag(sw.buf, int64(a.ASN))
		sw.buf = appendString(sw.buf, a.Name)
		sw.buf = appendString(sw.buf, a.Country)
		sw.buf = appendZigzag(sw.buf, int64(a.Rank))
		sw.buf = appendZigzag(sw.buf, int64(a.Peers))
	}
	if err := sw.flush(secASes); err != nil {
		return err
	}

	for start := 0; start < len(w.Instances); start += instChunkRows {
		end := min(start+instChunkRows, len(w.Instances))
		rows := w.Instances[start:end]
		sw.buf = appendUvarint(sw.buf, uint64(start))
		sw.buf = appendUvarint(sw.buf, uint64(len(rows)))
		for i := range rows {
			sw.buf = appendZigzag(sw.buf, int64(rows[i].ID))
		}
		for i := range rows {
			sw.buf = appendString(sw.buf, rows[i].Domain)
		}
		for i := range rows {
			sw.buf = appendString(sw.buf, string(rows[i].Software))
		}
		for i := range rows {
			sw.buf = appendString(sw.buf, rows[i].Country)
		}
		for i := range rows {
			sw.buf = appendZigzag(sw.buf, int64(rows[i].ASN))
		}
		for i := range rows {
			sw.buf = appendString(sw.buf, rows[i].IP)
		}
		for i := range rows {
			sw.buf = appendString(sw.buf, rows[i].CA)
		}
		for i := range rows {
			sw.buf = appendBool(sw.buf, rows[i].Open)
		}
		for i := range rows {
			sw.buf = appendBool(sw.buf, rows[i].Categorized)
		}
		for i := range rows {
			sw.buf = appendUvarint(sw.buf, uint64(len(rows[i].Categories)))
			for _, c := range rows[i].Categories {
				sw.buf = appendString(sw.buf, string(c))
			}
		}
		for i := range rows {
			sw.buf = appendUvarint(sw.buf, uint64(len(rows[i].Allowed)))
			for _, a := range rows[i].Allowed {
				sw.buf = appendString(sw.buf, string(a))
			}
		}
		for i := range rows {
			sw.buf = appendUvarint(sw.buf, uint64(len(rows[i].Prohibited)))
			for _, a := range rows[i].Prohibited {
				sw.buf = appendString(sw.buf, string(a))
			}
		}
		for i := range rows {
			sw.buf = appendString(sw.buf, string(rows[i].Operator))
		}
		for i := range rows {
			sw.buf = appendUvarint(sw.buf, uint64(len(rows[i].Blocks)))
			for _, b := range rows[i].Blocks {
				sw.buf = appendZigzag(sw.buf, int64(b))
			}
		}
		for i := range rows {
			sw.buf = appendZigzag(sw.buf, int64(rows[i].CreatedDay))
		}
		for i := range rows {
			sw.buf = appendZigzag(sw.buf, int64(rows[i].GoneDay))
		}
		for i := range rows {
			sw.buf = appendBool(sw.buf, rows[i].BlocksCrawl)
		}
		for i := range rows {
			sw.buf = appendZigzag(sw.buf, int64(rows[i].Users))
		}
		for i := range rows {
			sw.buf = appendZigzag(sw.buf, rows[i].Toots)
		}
		for i := range rows {
			sw.buf = appendZigzag(sw.buf, rows[i].Boosts)
		}
		for i := range rows {
			sw.buf = appendFloat64(sw.buf, rows[i].MaxWeeklyActivePct)
		}
		for i := range rows {
			sw.buf = appendZigzag(sw.buf, int64(rows[i].CertIssuedDay))
		}
		if err := sw.flush(secInstances); err != nil {
			return err
		}
	}

	for start := 0; start < len(w.Users); start += userChunkRows {
		end := min(start+userChunkRows, len(w.Users))
		rows := w.Users[start:end]
		sw.buf = appendUvarint(sw.buf, uint64(start))
		sw.buf = appendUvarint(sw.buf, uint64(len(rows)))
		for i := range rows {
			sw.buf = appendZigzag(sw.buf, int64(rows[i].ID))
		}
		for i := range rows {
			sw.buf = appendZigzag(sw.buf, int64(rows[i].Instance))
		}
		for i := range rows {
			sw.buf = appendZigzag(sw.buf, int64(rows[i].JoinDay))
		}
		for i := range rows {
			sw.buf = appendZigzag(sw.buf, int64(rows[i].Toots))
		}
		for i := range rows {
			sw.buf = appendZigzag(sw.buf, int64(rows[i].Boosts))
		}
		for i := range rows {
			sw.buf = appendBool(sw.buf, rows[i].Private)
		}
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
		sw.buf = appendZigzag(sw.buf, int64(ts.SlotsPerDay))
		sw.buf = appendUvarint(sw.buf, uint64(len(ts.Traces)))
		if err := sw.flush(secTraceHead); err != nil {
			return err
		}
		start := 0
		for start < len(ts.Traces) {
			chunkStart := start
			sw.buf = appendUvarint(sw.buf, uint64(chunkStart))
			countAt := len(sw.buf)
			sw.buf = append(sw.buf, 0, 0, 0, 0) // fixed 4-byte count patched below
			n := 0
			for start < len(ts.Traces) && (n == 0 || len(sw.buf) < chunkTargetBytes) {
				t := ts.Traces[start]
				sw.buf = appendUvarint(sw.buf, uint64(t.EncodedSize()))
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

	if len(w.CertOutageDays) > 0 {
		ids := make([]int32, 0, len(w.CertOutageDays))
		for id := range w.CertOutageDays {
			ids = append(ids, id)
		}
		for i := 1; i < len(ids); i++ { // insertion sort; the table is small
			for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
				ids[j], ids[j-1] = ids[j-1], ids[j]
			}
		}
		sw.buf = appendUvarint(sw.buf, uint64(len(ids)))
		for _, id := range ids {
			days := w.CertOutageDays[id]
			sw.buf = appendZigzag(sw.buf, int64(id))
			sw.buf = appendUvarint(sw.buf, uint64(len(days)))
			for _, d := range days {
				sw.buf = appendZigzag(sw.buf, int64(d))
			}
		}
		if err := sw.flush(secCertOutages); err != nil {
			return err
		}
	}

	sw.buf = appendUvarint(sw.buf, uint64(sw.sections))
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
	sw.buf = appendUvarint(sw.buf, uint64(g.NumNodes()))
	sw.buf = appendUvarint(sw.buf, uint64(g.NumEdges()))
	if err := sw.flush(secGraphHead); err != nil {
		return err
	}
	v, nodes := int32(0), int32(g.NumNodes())
	for v < nodes {
		sw.buf = append(sw.buf, gid)
		sw.buf = appendUvarint(sw.buf, uint64(v))
		countAt := len(sw.buf)
		sw.buf = append(sw.buf, 0, 0, 0, 0) // fixed 4-byte count patched below
		n := 0
		for v < nodes && (n == 0 || len(sw.buf) < chunkTargetBytes) {
			row := g.Out(v)
			sw.buf = appendUvarint(sw.buf, uint64(len(row)))
			for _, t := range row {
				sw.buf = appendUvarint(sw.buf, uint64(uint32(t)))
			}
			v++
			n++
		}
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
	budget     int64
	nInst      int
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

	d := &colDecoder{w: &World{}, budget: colDecodeBudget, traceCount: -1}
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

		r := &colReader{b: scratch}
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
		d.w.Seed = r.uvarint()
		d.w.Days = int(r.zigzag())
		d.nInst = r.count(maxWorldRows, "instance")
		d.nUsers = r.count(maxWorldRows, "user")
		d.nAS = r.count(maxWorldRows, "AS")
		flags := r.take(1)
		if r.err != nil {
			return nil
		}
		d.flags = flags[0]
		if err := d.alloc(int64(d.nInst)*300+int64(d.nUsers)*32+int64(d.nAS)*64, "header tables"); err != nil {
			return err
		}
		// nil stays nil so a round trip lands on the same world shape.
		if d.nInst > 0 {
			d.w.Instances = make([]Instance, d.nInst)
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
			a := &d.w.ASes[i]
			a.ASN = int(r.zigzag())
			a.Name = r.str()
			a.Country = r.str()
			a.Rank = int(r.zigzag())
			a.Peers = int(r.zigzag())
		}
	case secInstances:
		start := int(r.uvarint())
		n := r.count(instChunkRows, "instance chunk row")
		if r.err != nil {
			return nil
		}
		if start != d.instRows || start+n > d.nInst {
			return fmt.Errorf("instance chunk [%d,%d) out of order (have %d of %d rows)",
				start, start+n, d.instRows, d.nInst)
		}
		rows := d.w.Instances[start : start+n]
		for i := range rows {
			rows[i].ID = int32(r.zigzag())
		}
		for i := range rows {
			rows[i].Domain = r.str()
		}
		for i := range rows {
			rows[i].Software = Software(r.str())
		}
		for i := range rows {
			rows[i].Country = r.str()
		}
		for i := range rows {
			rows[i].ASN = int(r.zigzag())
		}
		for i := range rows {
			rows[i].IP = r.str()
		}
		for i := range rows {
			rows[i].CA = r.str()
		}
		for i := range rows {
			rows[i].Open = r.bool()
		}
		for i := range rows {
			rows[i].Categorized = r.bool()
		}
		for i := range rows {
			if k := r.count(len(r.b), "category"); k > 0 {
				rows[i].Categories = make([]Category, k)
				for j := range rows[i].Categories {
					rows[i].Categories[j] = Category(r.str())
				}
			}
		}
		for i := range rows {
			if k := r.count(len(r.b), "allowed activity"); k > 0 {
				rows[i].Allowed = make([]Activity, k)
				for j := range rows[i].Allowed {
					rows[i].Allowed[j] = Activity(r.str())
				}
			}
		}
		for i := range rows {
			if k := r.count(len(r.b), "prohibited activity"); k > 0 {
				rows[i].Prohibited = make([]Activity, k)
				for j := range rows[i].Prohibited {
					rows[i].Prohibited[j] = Activity(r.str())
				}
			}
		}
		for i := range rows {
			rows[i].Operator = Operator(r.str())
		}
		for i := range rows {
			if k := r.count(len(r.b), "block"); k > 0 {
				rows[i].Blocks = make([]int32, k)
				for j := range rows[i].Blocks {
					rows[i].Blocks[j] = d.instanceID(r, "block")
				}
			}
		}
		for i := range rows {
			rows[i].CreatedDay = int(r.zigzag())
		}
		for i := range rows {
			rows[i].GoneDay = int(r.zigzag())
		}
		for i := range rows {
			rows[i].BlocksCrawl = r.bool()
		}
		for i := range rows {
			rows[i].Users = int(r.zigzag())
		}
		for i := range rows {
			rows[i].Toots = r.zigzag()
		}
		for i := range rows {
			rows[i].Boosts = r.zigzag()
		}
		for i := range rows {
			rows[i].MaxWeeklyActivePct = r.float64()
		}
		for i := range rows {
			rows[i].CertIssuedDay = int(r.zigzag())
		}
		if r.err == nil {
			d.instRows += n
		}
	case secUsers:
		start := int(r.uvarint())
		n := r.count(userChunkRows, "user chunk row")
		if r.err != nil {
			return nil
		}
		if start != d.userRows || start+n > d.nUsers {
			return fmt.Errorf("user chunk [%d,%d) out of order (have %d of %d rows)",
				start, start+n, d.userRows, d.nUsers)
		}
		rows := d.w.Users[start : start+n]
		for i := range rows {
			rows[i].ID = int32(r.zigzag())
		}
		for i := range rows {
			rows[i].Instance = d.instanceID(r, "user instance")
		}
		for i := range rows {
			rows[i].JoinDay = int(r.zigzag())
		}
		for i := range rows {
			rows[i].Toots = int(r.zigzag())
		}
		for i := range rows {
			rows[i].Boosts = int(r.zigzag())
		}
		for i := range rows {
			rows[i].Private = r.bool()
		}
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
			table = d.nInst
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
		n := r.count(d.nInst, "cert-outage instance")
		if r.err == nil && n > 0 {
			d.w.CertOutageDays = make(map[int32][]int, n)
		}
		prev := int64(math.MinInt64)
		for i := 0; i < n && r.err == nil; i++ {
			id := r.zigzag()
			if id <= prev {
				r.fail("cert-outage ids not strictly ascending at entry %d", i)
				break
			}
			prev = id
			k := r.count(len(r.b), "cert-outage day")
			if r.err != nil || k == 0 {
				continue
			}
			days := make([]int, k)
			for j := range days {
				days[j] = int(r.zigzag())
			}
			d.w.CertOutageDays[int32(id)] = days
		}
	default:
		return fmt.Errorf("unknown section tag")
	}
	return nil
}

// instanceID reads an instance id and fails the section unless it indexes
// the instance table the header announced.
func (d *colDecoder) instanceID(r *colReader, what string) int32 {
	id := r.zigzag()
	if r.err == nil && (id < 0 || id >= int64(d.nInst)) {
		r.fail("%s id %d out of range [0,%d)", what, id, d.nInst)
	}
	return int32(id)
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
	if d.instRows != d.nInst {
		return nil, fmt.Errorf("instance rows incomplete: %d of %d", d.instRows, d.nInst)
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
