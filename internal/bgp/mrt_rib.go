package bgp

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"rrr/internal/trie"
)

// TABLE_DUMP_V2 (RFC 6396 §4.3) support: the format RouteViews and RIPE RIS
// use for periodic full-table RIB dumps, which the paper's pipeline loads to
// initialize per-VP table views before streaming updates (§4.1.1). A dump
// is a PEER_INDEX_TABLE record followed by one RIB_IPV4_UNICAST record per
// prefix, each holding one entry per peer with that route.

const (
	mrtTypeTableDumpV2 = 13

	tdv2PeerIndexTable = 1
	tdv2RIBIPv4Unicast = 2
)

// ribDumpWriter produces a TABLE_DUMP_V2 archive from per-peer routes.
type ribDumpWriter struct {
	w       *bufio.Writer
	peers   []VPKey
	peerIdx map[VPKey]uint16
	wroteIx bool
	seq     uint32
	// DumpTime stamps every record.
	DumpTime int64
}

// newRIBDumpWriter prepares a writer for the given peer set (the peer index
// table is emitted before the first RIB record).
func newRIBDumpWriter(w io.Writer, peers []VPKey) *ribDumpWriter {
	idx := make(map[VPKey]uint16, len(peers))
	for i, p := range peers {
		idx[p] = uint16(i)
	}
	return &ribDumpWriter{w: bufio.NewWriter(w), peers: peers, peerIdx: idx}
}

func (dw *ribDumpWriter) record(subtype uint16, body []byte) error {
	var hdr [12]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(dw.DumpTime))
	binary.BigEndian.PutUint16(hdr[4:6], mrtTypeTableDumpV2)
	binary.BigEndian.PutUint16(hdr[6:8], subtype)
	binary.BigEndian.PutUint32(hdr[8:12], uint32(len(body)))
	if _, err := dw.w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := dw.w.Write(body)
	return err
}

func (dw *ribDumpWriter) writeIndex() error {
	body := make([]byte, 0, 8+len(dw.peers)*11)
	var tmp [4]byte
	binary.BigEndian.PutUint32(tmp[:], 0xc0a80001) // collector BGP ID
	body = append(body, tmp[:]...)
	body = append(body, 0, 0) // view name length 0
	var cnt [2]byte
	binary.BigEndian.PutUint16(cnt[:], uint16(len(dw.peers)))
	body = append(body, cnt[:]...)
	for _, p := range dw.peers {
		// Peer type: bit0=0 (IPv4 address), bit1=1 (4-byte AS).
		body = append(body, 0x02)
		binary.BigEndian.PutUint32(tmp[:], p.PeerIP) // BGP ID = peer IP
		body = append(body, tmp[:]...)
		binary.BigEndian.PutUint32(tmp[:], p.PeerIP)
		body = append(body, tmp[:]...)
		binary.BigEndian.PutUint32(tmp[:], uint32(p.PeerAS))
		body = append(body, tmp[:]...)
	}
	dw.wroteIx = true
	return dw.record(tdv2PeerIndexTable, body)
}

// ribEntry is one peer's route to the record's prefix.
type ribEntry struct {
	Peer        VPKey
	Originated  int64
	ASPath      Path
	Communities Communities
	MED         uint32
}

// writePrefix emits one RIB_IPV4_UNICAST record with the given entries.
func (dw *ribDumpWriter) writePrefix(p trie.Prefix, entries []ribEntry) error {
	if !dw.wroteIx {
		if err := dw.writeIndex(); err != nil {
			return err
		}
	}
	body := make([]byte, 0, 64)
	var tmp [4]byte
	binary.BigEndian.PutUint32(tmp[:], dw.seq)
	dw.seq++
	body = append(body, tmp[:]...)
	body = append(body, encodeNLRI(p)...)
	var cnt [2]byte
	binary.BigEndian.PutUint16(cnt[:], uint16(len(entries)))
	body = append(body, cnt[:]...)
	for _, e := range entries {
		idx, ok := dw.peerIdx[e.Peer]
		if !ok {
			return fmt.Errorf("bgp: RIB entry for unknown peer %s", e.Peer)
		}
		var i2 [2]byte
		binary.BigEndian.PutUint16(i2[:], idx)
		body = append(body, i2[:]...)
		binary.BigEndian.PutUint32(tmp[:], uint32(e.Originated))
		body = append(body, tmp[:]...)
		attrs, err := encodeRIBAttrs(e)
		if err != nil {
			return err
		}
		binary.BigEndian.PutUint16(i2[:], uint16(len(attrs)))
		body = append(body, i2[:]...)
		body = append(body, attrs...)
	}
	return dw.record(tdv2RIBIPv4Unicast, body)
}

func encodeRIBAttrs(e ribEntry) ([]byte, error) {
	var attrs []byte
	var err error
	if attrs, err = appendAttr(attrs, attrOrigin, []byte{0}); err != nil {
		return nil, err
	}
	// AS_SEQUENCE segments of at most 255 hops each (single-byte count),
	// matching encodeBGPUpdate.
	seg := make([]byte, 0, 2+4*len(e.ASPath)+2*(len(e.ASPath)/255))
	for rest := e.ASPath; len(rest) > 0; {
		n := len(rest)
		if n > 255 {
			n = 255
		}
		seg = append(seg, asPathSequenceSegment, byte(n))
		for _, as := range rest[:n] {
			var tmp [4]byte
			binary.BigEndian.PutUint32(tmp[:], uint32(as))
			seg = append(seg, tmp[:]...)
		}
		rest = rest[n:]
	}
	if attrs, err = appendAttr(attrs, attrASPath, seg); err != nil {
		return nil, err
	}
	nh := make([]byte, 4)
	binary.BigEndian.PutUint32(nh, e.Peer.PeerIP)
	if attrs, err = appendAttr(attrs, attrNextHop, nh); err != nil {
		return nil, err
	}
	if e.MED != 0 {
		med := make([]byte, 4)
		binary.BigEndian.PutUint32(med, e.MED)
		if attrs, err = appendAttr(attrs, attrMED, med); err != nil {
			return nil, err
		}
	}
	if len(e.Communities) > 0 {
		cv := make([]byte, 4*len(e.Communities))
		for i, c := range e.Communities {
			binary.BigEndian.PutUint32(cv[4*i:], uint32(c))
		}
		if attrs, err = appendAttr(attrs, attrCommunities, cv); err != nil {
			return nil, err
		}
	}
	return attrs, nil
}

// Flush flushes the underlying buffer.
func (dw *ribDumpWriter) Flush() error { return dw.w.Flush() }

// WriteRIBDump serializes an entire RIB as a TABLE_DUMP_V2 archive.
func WriteRIBDump(w io.Writer, rib *RIB, dumpTime int64) error {
	peers := rib.VPs()
	dw := newRIBDumpWriter(w, peers)
	dw.DumpTime = dumpTime
	// Gather prefixes across peers.
	byPrefix := make(map[trie.Prefix][]ribEntry)
	var order []trie.Prefix
	for _, vp := range peers {
		for _, p := range rib.Prefixes(vp) {
			rt, _ := rib.Route(vp, p)
			if _, seen := byPrefix[p]; !seen {
				order = append(order, p)
			}
			byPrefix[p] = append(byPrefix[p], ribEntry{
				Peer: vp, Originated: rt.Updated,
				ASPath: rt.ASPath, Communities: rt.Communities, MED: rt.MED,
			})
		}
	}
	for _, p := range order {
		if err := dw.writePrefix(p, byPrefix[p]); err != nil {
			return err
		}
	}
	return dw.Flush()
}

// RIBDumpReader parses TABLE_DUMP_V2 archives into announce Updates (one
// per peer per prefix), the form the engine's priming path consumes.
type RIBDumpReader struct {
	r     *bufio.Reader
	peers []VPKey
	buf   []Update
}

// NewRIBDumpReader wraps r.
func NewRIBDumpReader(r io.Reader) *RIBDumpReader {
	return &RIBDumpReader{r: bufio.NewReaderSize(r, 64*1024)}
}

// Read returns the next update synthesized from the dump, io.EOF at end.
func (dr *RIBDumpReader) Read() (Update, error) {
	for len(dr.buf) == 0 {
		if err := dr.readRecord(); err != nil {
			return Update{}, err
		}
	}
	u := dr.buf[0]
	dr.buf = dr.buf[1:]
	return u, nil
}

func (dr *RIBDumpReader) readRecord() error {
	hdr := make([]byte, 12)
	if _, err := io.ReadFull(dr.r, hdr[:1]); err != nil {
		return err // io.EOF at clean end
	}
	if _, err := io.ReadFull(dr.r, hdr[1:]); err != nil {
		return ErrMRTTruncated
	}
	ts := int64(binary.BigEndian.Uint32(hdr[0:4]))
	typ := binary.BigEndian.Uint16(hdr[4:6])
	sub := binary.BigEndian.Uint16(hdr[6:8])
	length := binary.BigEndian.Uint32(hdr[8:12])
	if length > 1<<24 {
		return fmt.Errorf("bgp: implausible TABLE_DUMP_V2 record length %d", length)
	}
	body := make([]byte, length)
	if _, err := io.ReadFull(dr.r, body); err != nil {
		return ErrMRTTruncated
	}
	if typ != mrtTypeTableDumpV2 {
		return nil // other record kinds are not RIB data; skip
	}
	switch sub {
	case tdv2PeerIndexTable:
		return dr.parsePeerIndex(body)
	case tdv2RIBIPv4Unicast:
		return dr.parseRIBRecord(body, ts)
	default:
		return nil // AFI/SAFI we do not model
	}
}

func (dr *RIBDumpReader) parsePeerIndex(b []byte) error {
	if len(b) < 8 {
		return ErrMRTTruncated
	}
	nameLen := int(binary.BigEndian.Uint16(b[4:6]))
	off := 6 + nameLen
	if off+2 > len(b) {
		return ErrMRTTruncated
	}
	count := int(binary.BigEndian.Uint16(b[off : off+2]))
	off += 2
	dr.peers = dr.peers[:0]
	for i := 0; i < count; i++ {
		if off+1 > len(b) {
			return ErrMRTTruncated
		}
		ptype := b[off]
		off++
		off += 4 // BGP ID
		var ip uint32
		if ptype&0x01 != 0 { // IPv6 peer address
			if off+16 > len(b) {
				return ErrMRTTruncated
			}
			off += 16
		} else {
			if off+4 > len(b) {
				return ErrMRTTruncated
			}
			ip = binary.BigEndian.Uint32(b[off : off+4])
			off += 4
		}
		var as ASN
		if ptype&0x02 != 0 { // 4-byte AS
			if off+4 > len(b) {
				return ErrMRTTruncated
			}
			as = ASN(binary.BigEndian.Uint32(b[off : off+4]))
			off += 4
		} else {
			if off+2 > len(b) {
				return ErrMRTTruncated
			}
			as = ASN(binary.BigEndian.Uint16(b[off : off+2]))
			off += 2
		}
		dr.peers = append(dr.peers, VPKey{PeerIP: ip, PeerAS: as})
	}
	return nil
}

func (dr *RIBDumpReader) parseRIBRecord(b []byte, ts int64) error {
	if dr.peers == nil {
		return fmt.Errorf("bgp: RIB record before PEER_INDEX_TABLE")
	}
	if len(b) < 5 {
		return ErrMRTTruncated
	}
	// sequence(4) then NLRI-encoded prefix.
	plen := int(b[4])
	if plen > 32 {
		return fmt.Errorf("bgp: bad RIB prefix length %d", plen)
	}
	nbytes := (plen + 7) / 8
	if 5+nbytes+2 > len(b) {
		return ErrMRTTruncated
	}
	var addr uint32
	for i := 0; i < nbytes; i++ {
		addr |= uint32(b[5+i]) << (24 - 8*i)
	}
	prefix := trie.MakePrefix(addr, uint8(plen))
	off := 5 + nbytes
	count := int(binary.BigEndian.Uint16(b[off : off+2]))
	off += 2
	for i := 0; i < count; i++ {
		if off+8 > len(b) {
			return ErrMRTTruncated
		}
		peerIdx := int(binary.BigEndian.Uint16(b[off : off+2]))
		orig := int64(binary.BigEndian.Uint32(b[off+2 : off+6]))
		alen := int(binary.BigEndian.Uint16(b[off+6 : off+8]))
		off += 8
		if off+alen > len(b) {
			return ErrMRTTruncated
		}
		attrs := b[off : off+alen]
		off += alen
		if peerIdx >= len(dr.peers) {
			return fmt.Errorf("bgp: RIB entry references peer %d of %d", peerIdx, len(dr.peers))
		}
		peer := dr.peers[peerIdx]
		if orig == 0 {
			orig = ts
		}
		// Reuse the UPDATE attribute parser by synthesizing an update body
		// with no withdrawals and this prefix as NLRI.
		synth := make([]byte, 0, 4+len(attrs)+1+nbytes)
		synth = append(synth, 0, 0) // withdrawn length
		var a2 [2]byte
		binary.BigEndian.PutUint16(a2[:], uint16(len(attrs)))
		synth = append(synth, a2[:]...)
		synth = append(synth, attrs...)
		synth = append(synth, encodeNLRI(prefix)...)
		ups, err := parseBGPUpdate(synth, true, orig, peer.PeerIP, peer.PeerAS)
		if err != nil {
			return err
		}
		dr.buf = append(dr.buf, ups...)
	}
	return nil
}
