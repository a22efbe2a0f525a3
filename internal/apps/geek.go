package apps

import (
	"net/http"
	"time"

	"appx/internal/air"
	"appx/internal/apk"
)

const (
	geekAPIHost = "api.geek.example"
	geekImgHost = "img.geek.example"
	geekFeedN   = 24
)

// Geek builds the Geek-like shopping app (Wish's sister app in the paper's
// evaluation). Its feed is fetched through an Rx defer/map pipeline, and the
// item detail again carries a large product image (~315 KB, §6.2).
func Geek() *App {
	pb := air.NewProgramBuilder()
	main := pb.Class("GeekMain", air.KindActivity)

	fetch := main.Method("fetchFeed", 0)
	freq := fetch.CallAPI(air.APIHTTPNewRequest, fetch.ConstStr("POST"))
	fetch.CallAPI(air.APIHTTPSetURL, freq, fetch.ConstStr("http://"+geekAPIHost+"/api/feed"))
	fetch.CallAPI(air.APIHTTPAddHeader, freq, fetch.ConstStr("User-Agent"), fetch.CallAPI(air.APIDeviceUserAgent))
	fetch.CallAPI(air.APIHTTPSetBodyField, freq, fetch.ConstStr("count"), fetch.ConstStr("24"))
	fetch.CallAPI(air.APIHTTPSetBodyField, freq, fetch.ConstStr("_ver"), fetch.CallAPI(air.APIDeviceVersion))
	fresp := fetch.CallAPI(air.APIHTTPExecute, freq)
	fbody := fetch.CallAPI(air.APIHTTPRespBody, fresp)
	fetch.Return(fbody)
	fetch.Done()

	onFeed := main.Method("onFeed", 1)
	onFeed.CallAPI(air.APIIntentPut, onFeed.ConstStr("geek.feed"), onFeed.Param(0))
	fids := onFeed.CallAPI(air.APIJSONGet, onFeed.Param(0), onFeed.ConstStr("feed.items[*].id"))
	onFeed.ForEach(fids, "GeekMain.loadThumb")
	onFeed.CallAPI(air.APIUIRender, onFeed.ConstStr("feed"))
	onFeed.Done()

	m := main.Method("launch", 0)
	obs := m.CallAPI(air.APIRxDefer, m.ConstStr("GeekMain.fetchFeed"))
	m.CallAPI(air.APIRxSubscribe, obs, m.ConstStr("GeekMain.onFeed"))
	m.Done()

	th := main.Method("loadThumb", 1)
	treq := th.CallAPI(air.APIHTTPNewRequest, th.ConstStr("GET"))
	th.CallAPI(air.APIHTTPSetURL, treq, th.StrConcat("http://"+geekImgHost+"/thumb?item=", th.Param(0)))
	tresp := th.CallAPI(air.APIHTTPExecute, treq)
	th.CallAPI(air.APIUIShowImage, tresp)
	th.Done()

	sel := main.Method("onSelectItem", 1)
	feed := sel.CallAPI(air.APIIntentGet, sel.ConstStr("geek.feed"))
	sids := sel.CallAPI(air.APIJSONGet, feed, sel.ConstStr("feed.items[*].id"))
	sid := sel.CallAPI(air.APIListGet, sids, sel.Param(0))
	sel.CallAPI(air.APIIntentPut, sel.ConstStr("geek.sel"), sid)
	sel.Invoke("GeekDetail.open")
	sel.Done()

	det := pb.Class("GeekDetail", air.KindActivity)
	d := det.Method("open", 0)
	id := d.CallAPI(air.APIIntentGet, d.ConstStr("geek.sel"))
	dreq := d.CallAPI(air.APIHTTPNewRequest, d.ConstStr("POST"))
	d.CallAPI(air.APIHTTPSetURL, dreq, d.ConstStr("http://"+geekAPIHost+"/api/item/get"))
	d.CallAPI(air.APIHTTPAddHeader, dreq, d.ConstStr("Cookie"), d.CallAPI(air.APIDeviceCookie, d.ConstStr(geekAPIHost)))
	d.CallAPI(air.APIHTTPSetBodyField, dreq, d.ConstStr("item_id"), id)
	d.CallAPI(air.APIHTTPSetBodyField, dreq, d.ConstStr("_app"), d.ConstStr("geek"))
	d.CallAPI(air.APIHTTPSetBodyField, dreq, d.ConstStr("_ver"), d.CallAPI(air.APIDeviceVersion))
	dresp := d.CallAPI(air.APIHTTPExecute, dreq)
	dbody := d.CallAPI(air.APIHTTPRespBody, dresp)
	iurl := d.CallAPI(air.APIJSONGet, dbody, d.ConstStr("item.image"))
	ireq := d.CallAPI(air.APIHTTPNewRequest, d.ConstStr("GET"))
	d.CallAPI(air.APIHTTPSetURL, ireq, iurl)
	iresp := d.CallAPI(air.APIHTTPExecute, ireq)
	d.CallAPI(air.APIUIShowImage, iresp)
	rreq := d.CallAPI(air.APIHTTPNewRequest, d.ConstStr("POST"))
	d.CallAPI(air.APIHTTPSetURL, rreq, d.ConstStr("http://"+geekAPIHost+"/api/item/related"))
	d.CallAPI(air.APIHTTPSetBodyField, rreq, d.ConstStr("item_id"), id)
	d.CallAPI(air.APIHTTPExecute, rreq)
	d.CallAPI(air.APIUIRender, d.ConstStr("detail"))
	d.Done()

	buildGeekExtras(pb)

	prog := pb.MustBuild()
	a := &apk.APK{
		Manifest: apk.Manifest{
			Package:         "com.geek.example",
			Label:           "Geek",
			Version:         "2.3.1",
			Category:        "Shopping",
			LaunchHandler:   "GeekMain.launch",
			LaunchScreen:    "feed",
			MainInteraction: "Loads an item detail",
		},
		Screens: []apk.Screen{
			{Name: "feed", Widgets: []apk.Widget{
				{ID: "item", Kind: apk.ListItem, Handler: "GeekMain.onSelectItem", MaxIndex: geekFeedN, Target: "detail", Main: true},
			}},
			{Name: "detail", Widgets: []apk.Widget{{ID: "back", Kind: apk.Back}}},
		},
		Program: prog,
	}
	extraScreens, feedExtras, detailExtras := geekExtraScreens()
	a.Screens[0].Widgets = append(a.Screens[0].Widgets, feedExtras...)
	a.Screens[1].Widgets = append(a.Screens[1].Widgets, detailExtras...)
	a.Screens = append(a.Screens, extraScreens...)
	a.Manifest.ServiceEntries = geekServiceEntries()
	if err := a.Validate(); err != nil {
		panic(err)
	}
	return &App{
		Name:  "geek",
		APK:   a,
		Hosts: []string{geekAPIHost, geekImgHost},
		HostRTT: map[string]time.Duration{
			geekAPIHost: 165 * time.Millisecond,
			geekImgHost: 6 * time.Millisecond,
		},
		RenderDelay: map[string]time.Duration{
			"feed":   1600 * time.Millisecond,
			"detail": 450 * time.Millisecond,
		},
		Handler:    geekHandler,
		MainScreen: "feed",
		MainPath:   "/api/item/get",
	}
}

func geekHandler(scale float64) http.Handler {
	feedIDs := ids("geek-feed", geekFeedN)
	known := map[string]bool{}
	for _, id := range feedIDs {
		known[id] = true
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/api/feed", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeErr(w, http.StatusMethodNotAllowed, "POST required")
			return
		}
		sleepScaled(25*time.Millisecond, scale)
		items := make([]any, len(feedIDs))
		for i, id := range feedIDs {
			items[i] = map[string]any{"id": id, "name": "deal-" + id}
		}
		w.Header().Set("Set-Cookie", "gsid=g"+feedIDs[0]+"; Path=/")
		writeJSON(w, map[string]any{"feed": map[string]any{"items": items, "filler": pad(1500)}})
	})
	mux.HandleFunc("/api/item/get", func(w http.ResponseWriter, r *http.Request) {
		r.ParseForm()
		id := r.PostFormValue("item_id")
		if id == "" || !known[id] {
			writeErr(w, http.StatusNotFound, "unknown item")
			return
		}
		sleepScaled(30*time.Millisecond, scale)
		writeJSON(w, map[string]any{"item": map[string]any{
			"id":    id,
			"image": "http://" + geekImgHost + "/full?item=" + id,
			"desc":  pad(9000),
		}})
	})
	mux.HandleFunc("/api/item/related", func(w http.ResponseWriter, r *http.Request) {
		r.ParseForm()
		if r.PostFormValue("item_id") == "" {
			writeErr(w, http.StatusBadRequest, "missing item_id")
			return
		}
		sleepScaled(20*time.Millisecond, scale)
		writeJSON(w, map[string]any{"related": []any{feedIDs[0], feedIDs[1], feedIDs[2]}, "filler": pad(3000)})
	})
	mux.HandleFunc("/thumb", func(w http.ResponseWriter, r *http.Request) {
		item := r.URL.Query().Get("item")
		if item == "" {
			writeErr(w, http.StatusBadRequest, "missing item")
			return
		}
		writeImage(w, r, "geek-thumb-"+item, 35*1000)
	})
	mux.HandleFunc("/full", func(w http.ResponseWriter, r *http.Request) {
		item := r.URL.Query().Get("item")
		if item == "" || !known[item] {
			writeErr(w, http.StatusNotFound, "unknown item")
			return
		}
		writeImage(w, r, "geek-full-"+item, 315*1000)
	})
	registerGeekExtraRoutes(mux, scale, feedIDs)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeErr(w, http.StatusNotFound, "geek: no route "+r.URL.Path)
	})
	return mux
}
