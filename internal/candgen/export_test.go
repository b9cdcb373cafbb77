package candgen

// RawSigs exposes the packed signature components to the external test
// package (the tests moved out-of-package when internal/feature started
// importing candgen — an in-package test would be an import cycle).
func RawSigs(s *SignatureSet) []uint32 { return s.sigs }

// BandKey exposes a schema's bucket key in one band, so a test can write
// Pairs' definition down without Pairs.
func BandKey(s *SignatureSet, band, i int) uint16 { return s.bandKey(band, i) }

// GatherBlock exposes the gather's block size: Pairs polls ctx once per block.
const GatherBlock = gatherBlock
