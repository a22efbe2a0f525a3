package httpmsg

// SetQuery replaces the first query value for key, appending when absent.
// The program builds queries whole; tests mutate one field with it.
func (r *Request) SetQuery(key, value string) {
	r.ckey, r.rawQuery = "", ""
	for i, f := range r.Query {
		if f.Key == key {
			r.Query[i].Value = value
			return
		}
	}
	r.Query = append(r.Query, Field{Key: key, Value: value})
}
