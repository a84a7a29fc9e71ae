package main

// pinnedDigests maps each batch workload and trace length to the
// sha256 of its rendered report, computed once with one report worker.
// Reports are byte-deterministic at any parallelism, so every pass of
// every run must reproduce these bytes; a change that alters a report
// must say so by changing this table.
var pinnedDigests = map[string]string{
	"predictors/n=2000000": "89857a0afdff76e78b7d69e91047cefc4ec57be428c241cbaf03dfae4f28ed64",
	"predictors/n=2000064": "4f52d512d131e48414f32f09f7b75bdb53d2d69bcc129422f83d44718180fd95",
	"predictors/n=2000128": "358cdb4cd06352bd16e440dcaab306ff44940c322d33df6515d176de4c278c65",
	"predictors/n=2000192": "32909108960983780292240d5103144c881fe1f035b5c7757cbc7e10b7d063e9",
	"predictors/n=2000256": "42c2218b11b05f689db636e517a14e8443a8d58a3699a324a471fae9cc30288d",
	"predictors/n=2000320": "60e88785de517b26aba4f5a356f0f4aa98ea777d7365a91001b33e375315ea77",
	"predictors/n=2000384": "d45654c13185a967e3742d1b5d889d98286f153c970d70fcb7afa495533cd113",
	"predictors/n=2000448": "21a3c2322becd45d81d451c67707a780618cd2d4d4a37b2b0d0cc59da1f3193a",
	"report/n=200000":      "aa4e8c81701f9c5d6c6d352cdfe7f03e2ef3ea77e9627c95d89854a2d62d0e14",
	"report/n=200064":      "daf39cea9c0244af3e9dc383243c5fbe8d61df72ff57a63f5ff5210829f0a268",
	"report/n=200128":      "e991f52cfe593067b6a5e404ee00f93d0cbd9e7e4ff52569c55f058aefa06cb6",
	"report/n=200192":      "5ff76f502bf2284adbad2d7d72166e1ca6705aa7e23d776b570b9ad812f55cad",
	"report/n=200256":      "5ac293e62820adccabe42943aac45519d118d9b24e46d33b309b8e2113ea0f35",
	"report/n=200320":      "82c93c141bd4a11c3f704adaa3e8bacd72fbba9be6e215e4f8a1979ff9aa1506",
	"report/n=200384":      "27b43b9b9133735951aff34f88edcb1aba89a17f82d5f96b69e1964a123b438b",
	"report/n=200448":      "65cdda7340db79099f589ff0261d55d26d3bb4aeb233fb7608d7f33a13b51923",
}
