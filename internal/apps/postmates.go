package apps

import (
	"net/http"
	"time"

	"appx/internal/air"
	"appx/internal/apk"
)

const (
	pmAPIHost = "api.postmates.example"
	pmImgHost = "img.postmates.example"
	pmFeedN   = 8
)

// Postmates builds the second food-delivery app. Its origin is very close
// (5 ms RTT, Table 2); launch loads a small feed plus large restaurant
// images (~168 KB each, §6.2), while the main interaction loads the small
// (~7 KB) restaurant menu & info — which is why the paper measures only an
// 8 % data-usage overhead for it.
func Postmates() *App {
	pb := air.NewProgramBuilder()
	main := pb.Class("PMMain", air.KindActivity)

	m := main.Method("launch", 0)
	req := m.CallAPI(air.APIHTTPNewRequest, m.ConstStr("GET"))
	m.CallAPI(air.APIHTTPSetURL, req, m.ConstStr("http://"+pmAPIHost+"/api/feed"))
	m.CallAPI(air.APIHTTPAddHeader, req, m.ConstStr("User-Agent"), m.CallAPI(air.APIDeviceUserAgent))
	m.CallAPI(air.APIHTTPAddQuery, req, m.ConstStr("locale"), m.CallAPI(air.APIDeviceLocale))
	resp := m.CallAPI(air.APIHTTPExecute, req)
	body := m.CallAPI(air.APIHTTPRespBody, resp)
	m.CallAPI(air.APIIntentPut, m.ConstStr("pm.feed"), body)
	rids := m.CallAPI(air.APIJSONGet, body, m.ConstStr("feed[*].id"))
	m.ForEach(rids, "PMMain.loadRestImage")
	m.CallAPI(air.APIUIRender, m.ConstStr("feed"))
	m.Done()

	li := main.Method("loadRestImage", 1)
	lreq := li.CallAPI(air.APIHTTPNewRequest, li.ConstStr("GET"))
	li.CallAPI(air.APIHTTPSetURL, lreq, li.StrConcat("http://"+pmImgHost+"/rimg?rid=", li.Param(0)))
	lresp := li.CallAPI(air.APIHTTPExecute, lreq)
	li.CallAPI(air.APIUIShowImage, lresp)
	li.Done()

	sel := main.Method("onSelectRestaurant", 1)
	feed := sel.CallAPI(air.APIIntentGet, sel.ConstStr("pm.feed"))
	ids := sel.CallAPI(air.APIJSONGet, feed, sel.ConstStr("feed[*].id"))
	rid := sel.CallAPI(air.APIListGet, ids, sel.Param(0))
	sel.CallAPI(air.APIIntentPut, sel.ConstStr("pm.sel"), rid)
	sel.Invoke("PMRest.open")
	sel.Done()

	rest := pb.Class("PMRest", air.KindActivity)
	r := rest.Method("open", 0)
	rid2 := r.CallAPI(air.APIIntentGet, r.ConstStr("pm.sel"))
	rreq := r.CallAPI(air.APIHTTPNewRequest, r.ConstStr("GET"))
	r.CallAPI(air.APIHTTPSetURL, rreq, r.ConstStr("http://"+pmAPIHost+"/api/restaurant"))
	r.CallAPI(air.APIHTTPAddQuery, rreq, r.ConstStr("rid"), rid2)
	r.CallAPI(air.APIHTTPAddHeader, rreq, r.ConstStr("Cookie"), r.CallAPI(air.APIDeviceCookie, r.ConstStr(pmAPIHost)))
	r.CallAPI(air.APIHTTPExecute, rreq)
	hreq := r.CallAPI(air.APIHTTPNewRequest, r.ConstStr("GET"))
	r.CallAPI(air.APIHTTPSetURL, hreq, r.ConstStr("http://"+pmAPIHost+"/api/hours"))
	r.CallAPI(air.APIHTTPAddQuery, hreq, r.ConstStr("rid"), rid2)
	r.CallAPI(air.APIHTTPExecute, hreq)
	r.CallAPI(air.APIUIRender, r.ConstStr("restaurant"))
	r.Done()

	buildPostmatesExtras(pb)

	prog := pb.MustBuild()
	a := &apk.APK{
		Manifest: apk.Manifest{
			Package:         "com.postmates.example",
			Label:           "Postmates",
			Version:         "6.2.0",
			Category:        "Food delivery",
			LaunchHandler:   "PMMain.launch",
			LaunchScreen:    "feed",
			MainInteraction: "Loads a restaurant info.",
		},
		Screens: []apk.Screen{
			{Name: "feed", Widgets: []apk.Widget{
				{ID: "restaurant", Kind: apk.ListItem, Handler: "PMMain.onSelectRestaurant", MaxIndex: pmFeedN, Target: "restaurant", Main: true},
			}},
			{Name: "restaurant", Widgets: []apk.Widget{{ID: "back", Kind: apk.Back}}},
		},
		Program: prog,
	}
	extraScreens, feedExtras := postmatesExtraScreens()
	a.Screens[0].Widgets = append(a.Screens[0].Widgets, feedExtras...)
	a.Screens = append(a.Screens, extraScreens...)
	a.Manifest.ServiceEntries = postmatesServiceEntries()
	if err := a.Validate(); err != nil {
		panic(err)
	}
	return &App{
		Name:  "postmates",
		APK:   a,
		Hosts: []string{pmAPIHost, pmImgHost},
		HostRTT: map[string]time.Duration{
			pmAPIHost: 5 * time.Millisecond, // Table 2
			pmImgHost: 5 * time.Millisecond,
		},
		RenderDelay: map[string]time.Duration{
			"feed":       2100 * time.Millisecond,
			"restaurant": 350 * time.Millisecond,
		},
		Handler:    postmatesHandler,
		MainScreen: "feed",
		MainPath:   "/api/restaurant",
	}
}

func postmatesHandler(scale float64) http.Handler {
	restIDs := ids("pm-feed", pmFeedN)
	known := map[string]bool{}
	for _, id := range restIDs {
		known[id] = true
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/api/feed", func(w http.ResponseWriter, r *http.Request) {
		sleepScaled(150*time.Millisecond, scale)
		feed := make([]any, len(restIDs))
		for i, id := range restIDs {
			feed[i] = map[string]any{"id": id, "name": "resto-" + id}
		}
		w.Header().Set("Set-Cookie", "pmsid=m"+restIDs[0]+"; Path=/")
		writeJSON(w, map[string]any{"feed": feed, "filler": pad(1200)})
	})
	mux.HandleFunc("/api/restaurant", func(w http.ResponseWriter, r *http.Request) {
		rid := r.URL.Query().Get("rid")
		if !known[rid] {
			writeErr(w, http.StatusNotFound, "unknown restaurant")
			return
		}
		// The Postmates origin is close (5 ms RTT) but slow: the latency the
		// paper measures here is server time, the §2 "remote server itself
		// is slow" case that prefetching also hides.
		sleepScaled(300*time.Millisecond, scale)
		// Menu & info: ~7 KB (§6.2).
		writeJSON(w, map[string]any{"restaurant": map[string]any{
			"id": rid, "menu": pad(7000),
		}})
	})
	mux.HandleFunc("/api/hours", func(w http.ResponseWriter, r *http.Request) {
		if !known[r.URL.Query().Get("rid")] {
			writeErr(w, http.StatusNotFound, "unknown restaurant")
			return
		}
		sleepScaled(200*time.Millisecond, scale)
		writeJSON(w, map[string]any{"hours": map[string]any{"open": "10:00", "close": "23:00"}})
	})
	mux.HandleFunc("/rimg", func(w http.ResponseWriter, r *http.Request) {
		rid := r.URL.Query().Get("rid")
		if rid == "" {
			writeErr(w, http.StatusBadRequest, "missing rid")
			return
		}
		// Restaurant image: ~168 KB (§6.2).
		writeImage(w, r, "pm-rimg-"+rid, 168*1000)
	})
	registerPostmatesExtraRoutes(mux, scale, restIDs)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeErr(w, http.StatusNotFound, "postmates: no route "+r.URL.Path)
	})
	return mux
}
