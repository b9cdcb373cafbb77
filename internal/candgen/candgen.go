// Package candgen holds the pair type and the tuning record of the MinHash-LSH
// candidate generation the blocked build once ran. The build now reads every
// positive pair off the feature space and keeps those at or above a
// similarity floor (feature.PairFloor, cluster.CompletePairSims); what is
// left here is what the benchmark's trace still names.
package candgen

// Pair is one candidate schema pair, A < B.
type Pair struct {
	A, B int32
}

// Config is the MinHash-LSH tuning the blocked build used before the
// similarity floor replaced it: Bands bands of Rows signature components
// each. Nothing reads it; feature.NewTermVectorizer still takes one.
type Config struct {
	Bands int
	Rows  int
}
