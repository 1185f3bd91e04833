package dana_test

import (
	"fmt"
	"log"

	"dana"
)

// Example trains the paper's linear-regression UDF over a SQL table on
// the simulated accelerator.
func Example() {
	eng, err := dana.Open(dana.Config{PageSize: 8 << 10, PoolBytes: 32 << 20})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := eng.SQL(`CREATE TABLE pts (x float4, y float4);
		INSERT INTO pts VALUES (1, 2), (2, 4), (3, 6), (4, 8)`); err != nil {
		log.Fatal(err)
	}
	if _, err := eng.RegisterUDFSource(`
mo = dana.model([1])
in = dana.input([1])
out = dana.output()
lr = dana.meta(0.05)
linearR = dana.algo(mo, in, out)
s = sigma(mo * in, 1)
grad = (s - out) * in
linearR.setModel(mo - lr * grad)
linearR.setEpochs(50)
`, 1); err != nil {
		log.Fatal(err)
	}
	res, err := eng.SQL(`SELECT * FROM dana.linearR('pts')`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("w = %.3f\n", res.Rows[0][1])
	// Output:
	// w = 2.000
}

// ExampleEngine_Train_madlib trains on the MADlib+PostgreSQL baseline:
// an engine on the "cpu" backend runs a UDF registered at merge
// coefficient 1 as in-database, tuple-at-a-time IGD over the same heap
// pages the accelerator reads.
func ExampleEngine_Train_madlib() {
	eng, err := dana.Open(dana.Config{PageSize: 8 << 10, PoolBytes: 32 << 20, Backend: "cpu"})
	if err != nil {
		log.Fatal(err)
	}
	d, err := eng.LoadWorkload("Blog Feedback", 0.005, 1)
	if err != nil {
		log.Fatal(err)
	}
	algo, err := d.DSLAlgo(1)
	if err != nil {
		log.Fatal(err)
	}
	algo.SetEpochs(3)
	if err := eng.RegisterUDF(algo, 1); err != nil {
		log.Fatal(err)
	}
	res, err := eng.Train(algo.Name, d.Rel.Name)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("backend=%s epochs=%d model=%d params\n", res.Backend, res.Epochs, len(res.Model))
	// Output:
	// backend=cpu epochs=3 model=280 params
}

// ExampleParseUDF shows the paper's Python-embedded DSL parser.
func ExampleParseUDF() {
	algo, err := dana.ParseUDF(`
mo = dana.model([4])
in = dana.input([4])
out = dana.output()
svm = dana.algo(mo, in, out)
margin = out * sigma(mo * in, 1)
ind = margin < 1
grad = 0.01 * mo - ind * (out * in)
svm.setModel(mo - 0.05 * grad)
merge_coef = dana.meta(16)
g = svm.merge(grad, merge_coef, "+")
svm.setEpochs(5)
`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(algo.Name, algo.MergeCoef(), algo.Epochs)
	// Output:
	// svm 16 5
}
