package bgp

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"rrr/internal/trie"
)

// The binary codec is an MRT-inspired framed record format for update
// streams. Each record is:
//
//	magic   uint16  = 0xB64D
//	version uint8   = 1
//	type    uint8   (0 announce, 1 withdraw)
//	time    int64   (big endian)
//	peerIP  uint32
//	peerAS  uint32
//	prefix  uint32 + uint8 (addr, len)
//	med     uint32
//	npath   uint16, then npath × uint32 ASNs
//	ncomm   uint16, then ncomm × uint32 communities
//
// All integers are big endian, matching MRT/BGP wire conventions.

const (
	binaryMagic   = 0xB64D
	binaryVersion = 1

	// binaryHeaderLen is magic + version + type; binaryFixedLen is the
	// fixed-size body after it: time(8) peerIP(4) peerAS(4) prefix(4+1)
	// med(4) npath(2).
	binaryHeaderLen = 4
	binaryFixedLen  = 27
)

// errBadMagic indicates a corrupt or misaligned binary stream.
var errBadMagic = errors.New("bgp: bad magic in binary stream")

// errTrailingBytes rejects input that holds more than the one record
// Decoder.Decode was asked to decode.
var errTrailingBytes = errors.New("bgp: trailing bytes after binary record")

// AppendBinary appends u's framed binary record to dst. On error dst is
// returned unchanged.
func AppendBinary(dst []byte, u Update) ([]byte, error) {
	if len(u.ASPath) > 0xffff || len(u.Communities) > 0xffff {
		return dst, fmt.Errorf("bgp: attribute list too long (%d path, %d comm)",
			len(u.ASPath), len(u.Communities))
	}
	dst = binary.BigEndian.AppendUint16(dst, binaryMagic)
	dst = append(dst, binaryVersion, byte(u.Type))
	dst = binary.BigEndian.AppendUint64(dst, uint64(u.Time))
	dst = binary.BigEndian.AppendUint32(dst, u.PeerIP)
	dst = binary.BigEndian.AppendUint32(dst, uint32(u.PeerAS))
	dst = binary.BigEndian.AppendUint32(dst, u.Prefix.Addr)
	dst = append(dst, u.Prefix.Len)
	dst = binary.BigEndian.AppendUint32(dst, u.MED)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(u.ASPath)))
	for _, a := range u.ASPath {
		dst = binary.BigEndian.AppendUint32(dst, uint32(a))
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(u.Communities)))
	for _, c := range u.Communities {
		dst = binary.BigEndian.AppendUint32(dst, uint32(c))
	}
	return dst, nil
}

// Decoder decodes binary records. Each decoded update's Path and
// Communities are carved, capped, from chunks the Decoder owns: a chunk is
// filled front to back, then dropped for a fresh one and never written
// again, so a decoded slice stays valid for as long as the caller keeps it,
// and a record costs no allocation of its own. The zero value is ready to
// use. Not safe for concurrent use.
type Decoder struct {
	path []ASN
	comm []Community
}

// decodeChunk is the length in words of a fresh chunk: a few hundred
// records' attributes per allocation.
const decodeChunk = 4096

// carve returns the next n words of *chunk, capped at n so an append by
// the caller cannot reach the words after them, replacing the chunk when
// it has fewer than n left.
func carve[E any](chunk *[]E, n int) []E {
	if cap(*chunk) < n {
		*chunk = make([]E, max(n, decodeChunk))
	}
	s := (*chunk)[:n:n]
	*chunk = (*chunk)[n:cap(*chunk)]
	return s
}

// Decode decodes exactly one record from b: a short record is
// io.ErrUnexpectedEOF and bytes past the record are an error. It fails in
// the order a BinaryReader would.
func (d *Decoder) Decode(b []byte) (Update, error) {
	var u Update
	if len(b) < binaryHeaderLen {
		return u, io.ErrUnexpectedEOF
	}
	if err := decodeHeader(&u, b); err != nil {
		return u, err
	}
	if len(b) < binaryHeaderLen+binaryFixedLen {
		return u, io.ErrUnexpectedEOF
	}
	npath, err := decodeFixed(&u, b[binaryHeaderLen:])
	if err != nil {
		return u, err
	}
	b = b[binaryHeaderLen+binaryFixedLen:]
	if len(b) < 4*npath+2 {
		return u, io.ErrUnexpectedEOF
	}
	u.ASPath = d.decodePath(b[:4*npath])
	ncomm := int(binary.BigEndian.Uint16(b[4*npath:]))
	b = b[4*npath+2:]
	if len(b) < 4*ncomm {
		return u, io.ErrUnexpectedEOF
	}
	u.Communities = d.decodeCommunities(b[:4*ncomm])
	if len(b) > 4*ncomm {
		return u, errTrailingBytes
	}
	return u, nil
}

// decodeHeader validates the record header h[:binaryHeaderLen] and sets
// u.Type.
func decodeHeader(u *Update, h []byte) error {
	if binary.BigEndian.Uint16(h[0:2]) != binaryMagic {
		return errBadMagic
	}
	if h[2] != binaryVersion {
		return fmt.Errorf("bgp: unsupported binary version %d", h[2])
	}
	if h[3] > 1 {
		return fmt.Errorf("bgp: bad update type %d", h[3])
	}
	u.Type = UpdateType(h[3])
	return nil
}

// decodeFixed fills u's fixed fields from f[:binaryFixedLen] and returns
// the AS path length.
func decodeFixed(u *Update, f []byte) (npath int, err error) {
	u.Time = int64(binary.BigEndian.Uint64(f[0:8]))
	u.PeerIP = binary.BigEndian.Uint32(f[8:12])
	u.PeerAS = ASN(binary.BigEndian.Uint32(f[12:16]))
	u.Prefix = trie.MakePrefix(binary.BigEndian.Uint32(f[16:20]), f[20])
	if u.Prefix.Len > 32 {
		return 0, fmt.Errorf("bgp: bad prefix length %d", f[20])
	}
	u.MED = binary.BigEndian.Uint32(f[21:25])
	return int(binary.BigEndian.Uint16(f[25:27])), nil
}

// decodePath decodes big-endian ASN words; an empty b is a nil Path.
func (d *Decoder) decodePath(b []byte) Path {
	if len(b) == 0 {
		return nil
	}
	p := Path(carve(&d.path, len(b)/4))
	for i := range p {
		p[i] = ASN(binary.BigEndian.Uint32(b[i*4:]))
	}
	return p
}

// decodeCommunities decodes big-endian community words; an empty b is
// nil.
func (d *Decoder) decodeCommunities(b []byte) Communities {
	if len(b) == 0 {
		return nil
	}
	c := Communities(carve(&d.comm, len(b)/4))
	for i := range c {
		c[i] = Community(binary.BigEndian.Uint32(b[i*4:]))
	}
	return c
}

// BinaryWriter serializes updates in the framed binary format.
type BinaryWriter struct {
	w *bufio.Writer
	// scratch holds the record being written, reused across Write calls.
	scratch []byte
}

// NewBinaryWriter wraps w.
func NewBinaryWriter(w io.Writer) *BinaryWriter {
	return &BinaryWriter{w: bufio.NewWriter(w)}
}

// Write emits one record.
func (bw *BinaryWriter) Write(u Update) error {
	b, err := AppendBinary(bw.scratch[:0], u)
	if err != nil {
		return err
	}
	bw.scratch = b
	_, err = bw.w.Write(b)
	return err
}

// Flush flushes the underlying buffer.
func (bw *BinaryWriter) Flush() error { return bw.w.Flush() }

// BinaryReader parses updates from the framed binary format.
type BinaryReader struct {
	r *bufio.Reader
	// head holds the header and fixed fields of the record being decoded
	// and scratch its variable-length portion (AS path and community
	// words). Both are reused across Read calls, and dec carves the
	// Path/Communities slices that escape to the caller, so the steady-state
	// read path allocates nothing per record.
	head    [binaryHeaderLen + binaryFixedLen]byte
	scratch []byte
	dec     Decoder
}

// NewBinaryReader wraps r.
func NewBinaryReader(r io.Reader) *BinaryReader {
	return &BinaryReader{r: bufio.NewReader(r)}
}

// Read parses the next record. It returns io.EOF at a clean end of stream
// and io.ErrUnexpectedEOF on truncation.
func (br *BinaryReader) Read() (Update, error) {
	var u Update
	h := br.head[:]
	if _, err := io.ReadFull(br.r, h[:1]); err != nil {
		return u, err
	}
	if _, err := io.ReadFull(br.r, h[1:binaryHeaderLen]); err != nil {
		return u, unexpectedEOF(err)
	}
	if err := decodeHeader(&u, h); err != nil {
		return u, err
	}
	if _, err := io.ReadFull(br.r, h[binaryHeaderLen:]); err != nil {
		return u, unexpectedEOF(err)
	}
	npath, err := decodeFixed(&u, h[binaryHeaderLen:])
	if err != nil {
		return u, err
	}

	// Variable tail: npath ASN words plus the community count, then the
	// community words.
	b, err := br.readScratch(4*npath + 2)
	if err != nil {
		return u, err
	}
	u.ASPath = br.dec.decodePath(b[:4*npath])
	ncomm := int(binary.BigEndian.Uint16(b[4*npath:]))
	if ncomm > 0 {
		if b, err = br.readScratch(4 * ncomm); err != nil {
			return u, err
		}
		u.Communities = br.dec.decodeCommunities(b)
	}
	return u, nil
}

// readScratch reads the next n bytes into the reused scratch buffer.
func (br *BinaryReader) readScratch(n int) ([]byte, error) {
	if cap(br.scratch) < n {
		br.scratch = make([]byte, n)
	}
	b := br.scratch[:n]
	if _, err := io.ReadFull(br.r, b); err != nil {
		return nil, unexpectedEOF(err)
	}
	return b, nil
}

func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
