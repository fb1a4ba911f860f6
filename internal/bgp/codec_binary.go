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
)

// errBadMagic indicates a corrupt or misaligned binary stream.
var errBadMagic = errors.New("bgp: bad magic in binary stream")

// BinaryWriter serializes updates in the framed binary format.
type BinaryWriter struct {
	w *bufio.Writer
}

// NewBinaryWriter wraps w.
func NewBinaryWriter(w io.Writer) *BinaryWriter {
	return &BinaryWriter{w: bufio.NewWriter(w)}
}

// Write emits one record.
func (bw *BinaryWriter) Write(u Update) error {
	var hdr [4]byte
	binary.BigEndian.PutUint16(hdr[0:2], binaryMagic)
	hdr[2] = binaryVersion
	hdr[3] = byte(u.Type)
	if _, err := bw.w.Write(hdr[:]); err != nil {
		return err
	}
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(u.Time))
	bw.w.Write(buf[:])
	binary.BigEndian.PutUint32(buf[:4], u.PeerIP)
	bw.w.Write(buf[:4])
	binary.BigEndian.PutUint32(buf[:4], uint32(u.PeerAS))
	bw.w.Write(buf[:4])
	binary.BigEndian.PutUint32(buf[:4], u.Prefix.Addr)
	bw.w.Write(buf[:4])
	bw.w.WriteByte(u.Prefix.Len)
	binary.BigEndian.PutUint32(buf[:4], u.MED)
	bw.w.Write(buf[:4])

	if len(u.ASPath) > 0xffff || len(u.Communities) > 0xffff {
		return fmt.Errorf("bgp: attribute list too long (%d path, %d comm)",
			len(u.ASPath), len(u.Communities))
	}
	binary.BigEndian.PutUint16(buf[:2], uint16(len(u.ASPath)))
	bw.w.Write(buf[:2])
	for _, a := range u.ASPath {
		binary.BigEndian.PutUint32(buf[:4], uint32(a))
		bw.w.Write(buf[:4])
	}
	binary.BigEndian.PutUint16(buf[:2], uint16(len(u.Communities)))
	bw.w.Write(buf[:2])
	for _, c := range u.Communities {
		binary.BigEndian.PutUint32(buf[:4], uint32(c))
		if _, err := bw.w.Write(buf[:4]); err != nil {
			return err
		}
	}
	return nil
}

// Flush flushes the underlying buffer.
func (bw *BinaryWriter) Flush() error { return bw.w.Flush() }

// BinaryReader parses updates from the framed binary format.
type BinaryReader struct {
	r *bufio.Reader
	// scratch holds the variable-length portion of the record being
	// decoded (AS path and community words), reused across Read calls so
	// the steady-state read path performs three io.ReadFull calls and
	// allocates only the Path/Communities slices that escape to the
	// caller.
	scratch []byte
}

// NewBinaryReader wraps r.
func NewBinaryReader(r io.Reader) *BinaryReader {
	return &BinaryReader{r: bufio.NewReader(r)}
}

// Read parses the next record. It returns io.EOF at a clean end of stream
// and io.ErrUnexpectedEOF on truncation.
func (br *BinaryReader) Read() (Update, error) {
	var u Update
	var hdr [4]byte
	if _, err := io.ReadFull(br.r, hdr[:1]); err != nil {
		if err == io.EOF {
			return u, io.EOF
		}
		return u, err
	}
	if _, err := io.ReadFull(br.r, hdr[1:]); err != nil {
		return u, unexpectedEOF(err)
	}
	if binary.BigEndian.Uint16(hdr[0:2]) != binaryMagic {
		return u, errBadMagic
	}
	if hdr[2] != binaryVersion {
		return u, fmt.Errorf("bgp: unsupported binary version %d", hdr[2])
	}
	if hdr[3] > 1 {
		return u, fmt.Errorf("bgp: bad update type %d", hdr[3])
	}
	u.Type = UpdateType(hdr[3])

	// Fixed-size body: time(8) peerIP(4) peerAS(4) prefix(4+1) med(4)
	// npath(2), read in one call.
	var fixed [27]byte
	if _, err := io.ReadFull(br.r, fixed[:]); err != nil {
		return u, unexpectedEOF(err)
	}
	u.Time = int64(binary.BigEndian.Uint64(fixed[0:8]))
	u.PeerIP = binary.BigEndian.Uint32(fixed[8:12])
	u.PeerAS = ASN(binary.BigEndian.Uint32(fixed[12:16]))
	u.Prefix = trie.MakePrefix(binary.BigEndian.Uint32(fixed[16:20]), fixed[20])
	if u.Prefix.Len > 32 {
		return u, fmt.Errorf("bgp: bad prefix length %d", fixed[20])
	}
	u.MED = binary.BigEndian.Uint32(fixed[21:25])
	npath := binary.BigEndian.Uint16(fixed[25:27])

	// Variable tail: npath ASN words plus the community count, then the
	// community words — two more reads through a reusable scratch buffer.
	n := int(npath)*4 + 2
	if cap(br.scratch) < n {
		br.scratch = make([]byte, n)
	}
	b := br.scratch[:n]
	if _, err := io.ReadFull(br.r, b); err != nil {
		return u, unexpectedEOF(err)
	}
	if npath > 0 {
		u.ASPath = make(Path, npath)
		for i := range u.ASPath {
			u.ASPath[i] = ASN(binary.BigEndian.Uint32(b[i*4:]))
		}
	}
	ncomm := binary.BigEndian.Uint16(b[n-2:])
	if ncomm > 0 {
		n = int(ncomm) * 4
		if cap(br.scratch) < n {
			br.scratch = make([]byte, n)
		}
		b = br.scratch[:n]
		if _, err := io.ReadFull(br.r, b); err != nil {
			return u, unexpectedEOF(err)
		}
		u.Communities = make(Communities, ncomm)
		for i := range u.Communities {
			u.Communities[i] = Community(binary.BigEndian.Uint32(b[i*4:]))
		}
	}
	return u, nil
}

func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
