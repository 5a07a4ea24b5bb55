package wire

import (
	"encoding/binary"
	"hash/crc32"
)

// A frame is [payload length: 4 bytes BE][CRC-32C of payload: 4 bytes BE]
// [payload]. It is the unit every disk write lands as — a WAL commit batch, a
// WAL index snapshot, a learner snapshot — so one check tells a whole write
// from a torn one: the length must fit and the checksum must match.

// FrameHeader is the size of a frame's header.
const FrameHeader = 8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the CRC-32C a frame carries.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// SealFrame completes a frame whose first FrameHeader bytes were reserved and
// whose payload follows them, filling in the header in place.
func SealFrame(frame []byte) []byte {
	payload := frame[FrameHeader:]
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], Checksum(payload))
	return frame
}

// ReadFrame reads one frame from the head of data. It returns the payload,
// the frame's whole size, and whether the frame is intact: a payload of 1 to
// limit bytes, all present, matching its checksum. The length is checked
// before the checksum runs, so a forged one is refused without reading on.
func ReadFrame(data []byte, limit int) (payload []byte, n int, ok bool) {
	if len(data) < FrameHeader {
		return nil, 0, false
	}
	length := binary.BigEndian.Uint32(data[0:4])
	if length == 0 || uint64(length) > uint64(limit) || int(length) > len(data)-FrameHeader {
		return nil, 0, false
	}
	payload = data[FrameHeader : FrameHeader+int(length)]
	if Checksum(payload) != binary.BigEndian.Uint32(data[4:8]) {
		return nil, 0, false
	}
	return payload, FrameHeader + int(length), true
}
