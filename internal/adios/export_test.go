package adios

// Step builders shared with the external tests (package adios_test),
// which drive Reader against a staging server and so cannot live in
// this package: staging imports adios.
var (
	SampleStep = sampleStep
	CodedStep  = codedStep
)
