//go:build ignore

// Generates minimized seed-corpus entries under internal/bgp/testdata/fuzz
// for the edge cases the fuzz targets' invariants guard: multi-segment AS
// paths longer than 255 hops (the writer's old single-byte segment-count
// overflow), mid-record truncation, and the string parsers' numeric
// overflow boundaries. Run from internal/bgp with: go run gen_corpus.go
package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

func writeSeed(dir, name string, lines ...string) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		panic(err)
	}
	content := "go test fuzz v1\n"
	for _, l := range lines {
		content += l + "\n"
	}
	if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
		panic(err)
	}
}

func bytesLine(b []byte) string  { return "[]byte(" + strconv.Quote(string(b)) + ")" }
func stringLine(s string) string { return "string(" + strconv.Quote(s) + ")" }

// mrtRecord frames one BGP4MP_MESSAGE_AS4 record around a raw BGP message.
func mrtRecord(ts uint32, msg []byte) []byte {
	body := make([]byte, 0, 20+len(msg))
	var t4 [4]byte
	binary.BigEndian.PutUint32(t4[:], 65000) // peer AS
	body = append(body, t4[:]...)
	body = append(body, 0, 0, 0, 0) // local AS
	body = append(body, 0, 0)       // ifindex
	body = append(body, 0, 1)       // AFI IPv4
	body = append(body, 1, 2, 3, 4) // peer IP
	body = append(body, 0, 0, 0, 0) // local IP
	body = append(body, msg...)
	var hdr [12]byte
	binary.BigEndian.PutUint32(hdr[0:4], ts)
	binary.BigEndian.PutUint16(hdr[4:6], 16) // BGP4MP
	binary.BigEndian.PutUint16(hdr[6:8], 4)  // MESSAGE_AS4
	binary.BigEndian.PutUint32(hdr[8:12], uint32(len(body)))
	return append(hdr[:], body...)
}

// bgpUpdateMsg builds a raw BGP UPDATE with the given attrs and one /8 NLRI.
func bgpUpdateMsg(attrs []byte) []byte {
	body := []byte{0, 0} // no withdrawn
	var a2 [2]byte
	binary.BigEndian.PutUint16(a2[:], uint16(len(attrs)))
	body = append(body, a2[:]...)
	body = append(body, attrs...)
	body = append(body, 8, 10) // NLRI 10.0.0.0/8
	msg := make([]byte, 19, 19+len(body))
	for i := 0; i < 16; i++ {
		msg[i] = 0xff
	}
	msg[18] = 2 // UPDATE
	msg = append(msg, body...)
	binary.BigEndian.PutUint16(msg[16:18], uint16(len(msg)))
	return msg
}

func main() {
	root := "testdata/fuzz"

	// FuzzMRTReader: AS_PATH of 300 hops split over two AS_SEQUENCE
	// segments. Parses into one 300-hop Path; re-encoding used to wrap
	// the single-byte segment count (300 & 0xff = 44) and corrupt the
	// stream. The round-trip invariant in FuzzMRTReader regresses it.
	const hops = 300
	seg := []byte{}
	seg = append(seg, 2, 255) // AS_SEQUENCE, 255 hops
	for i := 0; i < 255; i++ {
		var a [4]byte
		binary.BigEndian.PutUint32(a[:], uint32(100+i))
		seg = append(seg, a[:]...)
	}
	seg = append(seg, 2, hops-255)
	for i := 255; i < hops; i++ {
		var a [4]byte
		binary.BigEndian.PutUint32(a[:], uint32(100+i))
		seg = append(seg, a[:]...)
	}
	var attrs []byte
	attrs = append(attrs, 0x40, 1, 1, 0) // ORIGIN IGP
	attrs = append(attrs, 0x50, 2)       // AS_PATH, extended length
	var l2 [2]byte
	binary.BigEndian.PutUint16(l2[:], uint16(len(seg)))
	attrs = append(attrs, l2[:]...)
	attrs = append(attrs, seg...)
	attrs = append(attrs, 0x40, 3, 4, 1, 2, 3, 4) // NEXT_HOP
	longPath := mrtRecord(100, bgpUpdateMsg(attrs))
	writeSeed(filepath.Join(root, "FuzzMRTReader"), "aspath-multiseg-300", bytesLine(longPath))
	writeSeed(filepath.Join(root, "FuzzMRTReader"), "midrecord-cut", bytesLine(longPath[:15]))

	// FuzzBinaryReader: a valid record cut mid-body, and a record whose
	// npath field promises more ASNs than the stream holds.
	var rec bytes.Buffer
	rec.Write([]byte{0xb6, 0x4d, 1, 0})         // magic, v1, announce
	rec.Write([]byte{0, 0, 0, 0, 0, 0, 0, 100}) // time
	rec.Write([]byte{1, 2, 3, 4})               // peerIP
	rec.Write([]byte{0, 0, 0xfd, 0xe8})         // peerAS
	rec.Write([]byte{10, 0, 0, 0, 8})           // prefix 10.0.0.0/8
	rec.Write([]byte{0, 0, 0, 0})               // MED
	rec.Write([]byte{0xff, 0xff})               // npath = 65535, then nothing
	writeSeed(filepath.Join(root, "FuzzBinaryReader"), "npath-overpromise", bytesLine(rec.Bytes()))
	writeSeed(filepath.Join(root, "FuzzBinaryReader"), "midrecord-cut", bytesLine(rec.Bytes()[:9]))

	// FuzzTextReader: a withdraw that carries announce-only keys — the
	// non-canonical input whose first re-encoding must be a fixed point.
	writeSeed(filepath.Join(root, "FuzzTextReader"), "withdraw-with-aspath",
		stringLine("TIME: 7\nFROM: 1.2.3.4 AS65000\nASPATH: 65000 3356\nCOMMUNITY: 3356:100\nMED: 9\nWITHDRAW: 10.0.0.0/8\n"))

	// FuzzParsePath: 32-bit boundary and just past it, plus an empty path
	// (Origin/Compact/HasLoop must tolerate zero hops).
	writeSeed(filepath.Join(root, "FuzzParsePath"), "uint32-max", stringLine("4294967295"))
	writeSeed(filepath.Join(root, "FuzzParsePath"), "uint32-overflow", stringLine("4294967296"))
	writeSeed(filepath.Join(root, "FuzzParsePath"), "empty", stringLine("   "))

	// FuzzParseCommunity: 16-bit boundaries, empty halves, double colon.
	writeSeed(filepath.Join(root, "FuzzParseCommunity"), "uint16-max", stringLine("65535:65535"))
	writeSeed(filepath.Join(root, "FuzzParseCommunity"), "uint16-overflow", stringLine("65536:0"))
	writeSeed(filepath.Join(root, "FuzzParseCommunity"), "empty-halves", stringLine(":"))
	writeSeed(filepath.Join(root, "FuzzParseCommunity"), "double-colon", stringLine("1:2:3"))

	fmt.Println("seed corpora written under", root)
}
