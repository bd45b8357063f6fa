package main

// goldenDigests records, per engine workload and --seed, the run's
// aggregate digest: the hash of every continuation's snapshot digest
// after its generation (Workers=1, amd64). A mismatch means the
// program's behaviour changed; runs with seeds outside the table are
// checked for repeatability only. Regenerate with
// `perfbench -record-golden <workload>` and review the diff: any change
// here is a behaviour change.
var goldenDigests = map[string]map[uint64]string{
	"relax-n250m30": {
		0:  "790d7d1dda50c72b",
		1:  "f42e81e141726f95",
		2:  "06c7fde11d4f1474",
		3:  "a69ab6c31e02ea1e",
		4:  "cd41c0c57ccdc998",
		5:  "99e95a67b756d45f",
		6:  "1725b1156bca1e2c",
		7:  "c8159f6c5ca11121",
		8:  "bc664e33beede63b",
		9:  "d27f05a4f8d574c1",
		10: "0ff7d3ecee90df06",
		11: "b3bb9ba891103579",
		12: "66754f470c8c2500",
		13: "0e8f43eb5765c7c5",
		14: "807d11cf2d8d59d4",
		15: "97c1bf29b989c91a",
		16: "168647fe0af3c0a2",
		17: "5627d21624f04317",
		18: "305f40a9f5f821ba",
		19: "d8c86f4d61c80fc7",
		20: "0c768d793180d057",
	},
	"vmwave-n100m5": {
		0:  "f0a3f4bef38527c1",
		1:  "c6e140a66cbc1cca",
		2:  "505e88fbea28328e",
		3:  "3848aa8c9908fbab",
		4:  "016d0738cea319d8",
		5:  "52ed443292e2c625",
		6:  "3c1578e2049d1e66",
		7:  "2b4a92480aeb7189",
		8:  "c8cfba575174dd07",
		9:  "9b8e6f0891328bf7",
		10: "99215baae693caa8",
		11: "649050401c4874ad",
		12: "0f06930499aa4531",
		13: "c5ba6998643fa764",
		14: "98cd8f5001d42408",
		15: "07e280c8efdfbcf8",
		16: "68ceca3054e824bb",
		17: "28cdf68c3a2bc7c0",
		18: "35e62a8649f328c5",
		19: "a947ba6db07e7f37",
		20: "a4e6f920f652d185",
	},
	"surr-n250m30": {
		0:  "7e4d8a8331bc0aa7",
		1:  "cddfafaa31019cff",
		2:  "27539d1ec9ba45a7",
		3:  "d496ceadb649ed66",
		4:  "8f727d6925ba3f24",
		5:  "cb54e1e7f3ccee65",
		6:  "0434c31b9afa4c10",
		7:  "65d184445c9131cc",
		8:  "09a0e61e798e23c8",
		9:  "7164f948429ecfdb",
		10: "1864adb761ec0b18",
		11: "347b44e01557c0de",
		12: "cb8d7c961fa03d58",
		13: "4961fd4118f14800",
		14: "d9b88439bbfd8f96",
		15: "1c58a131d40f9983",
		16: "ddeba5210fca2bed",
		17: "d0ef3a87d269296a",
		18: "055f70a0f237d393",
		19: "8c092abb5becbdc5",
		20: "89d9070c92b54f6e",
	},
}

func goldenDigest(workload string, seed uint64) (string, bool) {
	d, ok := goldenDigests[workload][seed]
	return d, ok
}
