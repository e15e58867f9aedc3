package exec

import (
	"reflect"
	"testing"
)

// add must fold every Metrics field: a counter missing from it would
// vanish from a serving peer's metrics.
func TestMetricsAddFoldsEveryField(t *testing.T) {
	var one Metrics
	v := reflect.ValueOf(&one).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int:
			f.SetInt(1)
		case reflect.Float64:
			f.SetFloat(1)
		default:
			t.Fatalf("Metrics.%s has kind %s", v.Type().Field(i).Name, f.Kind())
		}
	}
	var sum Metrics
	sum.add(one)
	sum.add(one)
	s := reflect.ValueOf(sum)
	for i := 0; i < s.NumField(); i++ {
		f := s.Field(i)
		if (f.Kind() == reflect.Int && f.Int() != 2) || (f.Kind() == reflect.Float64 && f.Float() != 2) {
			t.Errorf("add does not fold Metrics.%s", s.Type().Field(i).Name)
		}
	}
}
