package apps

import (
	"net/http"
	"time"

	"appx/internal/air"
	"appx/internal/apk"
)

const (
	poAPIHost  = "api.purpleocean.example"
	poImgHost  = "img.purpleocean.example"
	poAdvisorN = 12
)

// PurpleOcean builds the psychic-reading app. Its origin server sits far
// away (230 ms RTT, Table 2 — "Purple Ocean benefits the most in terms of
// network delay because their servers are located far away", §6.2). The main
// interaction loads an advisor page: advisor info (through an Rx pipeline),
// a profile image, and a video still image — the three Table-2 transactions.
func PurpleOcean() *App {
	pb := air.NewProgramBuilder()
	main := pb.Class("POMain", air.KindActivity)

	m := main.Method("launch", 0)
	req := m.CallAPI(air.APIHTTPNewRequest, m.ConstStr("GET"))
	m.CallAPI(air.APIHTTPSetURL, req, m.ConstStr("http://"+poAPIHost+"/api/advisors"))
	m.CallAPI(air.APIHTTPAddHeader, req, m.ConstStr("User-Agent"), m.CallAPI(air.APIDeviceUserAgent))
	resp := m.CallAPI(air.APIHTTPExecute, req)
	body := m.CallAPI(air.APIHTTPRespBody, resp)
	m.CallAPI(air.APIIntentPut, m.ConstStr("po.advisors"), body)
	aids := m.CallAPI(air.APIJSONGet, body, m.ConstStr("advisors[*].id"))
	m.ForEach(aids, "POMain.loadThumb")
	m.CallAPI(air.APIUIRender, m.ConstStr("advisors"))
	m.Done()

	th := main.Method("loadThumb", 1)
	treq := th.CallAPI(air.APIHTTPNewRequest, th.ConstStr("GET"))
	th.CallAPI(air.APIHTTPSetURL, treq, th.StrConcat("http://"+poImgHost+"/athumb?aid=", th.Param(0)))
	tresp := th.CallAPI(air.APIHTTPExecute, treq)
	th.CallAPI(air.APIUIShowImage, tresp)
	th.Done()

	sel := main.Method("onSelectAdvisor", 1)
	advisors := sel.CallAPI(air.APIIntentGet, sel.ConstStr("po.advisors"))
	ids := sel.CallAPI(air.APIJSONGet, advisors, sel.ConstStr("advisors[*].id"))
	aid := sel.CallAPI(air.APIListGet, ids, sel.Param(0))
	sel.CallAPI(air.APIIntentPut, sel.ConstStr("po.sel"), aid)
	sel.Invoke("POAdvisor.open")
	sel.Done()

	adv := pb.Class("POAdvisor", air.KindActivity)

	fi := adv.Method("fetchInfo", 1)
	freq := fi.CallAPI(air.APIHTTPNewRequest, fi.ConstStr("POST"))
	fi.CallAPI(air.APIHTTPSetURL, freq, fi.ConstStr("http://"+poAPIHost+"/api/advisor/get"))
	fi.CallAPI(air.APIHTTPAddHeader, freq, fi.ConstStr("Cookie"), fi.CallAPI(air.APIDeviceCookie, fi.ConstStr(poAPIHost)))
	fi.CallAPI(air.APIHTTPSetBodyField, freq, fi.ConstStr("advisor_id"), fi.Param(0))
	fi.CallAPI(air.APIHTTPSetBodyField, freq, fi.ConstStr("_locale"), fi.CallAPI(air.APIDeviceLocale))
	fresp := fi.CallAPI(air.APIHTTPExecute, freq)
	fbody := fi.CallAPI(air.APIHTTPRespBody, fresp)
	fi.Return(fbody)
	fi.Done()

	oi := adv.Method("onInfo", 1)
	purl := oi.CallAPI(air.APIJSONGet, oi.Param(0), oi.ConstStr("advisor.profile_image"))
	preq := oi.CallAPI(air.APIHTTPNewRequest, oi.ConstStr("GET"))
	oi.CallAPI(air.APIHTTPSetURL, preq, purl)
	presp := oi.CallAPI(air.APIHTTPExecute, preq)
	oi.CallAPI(air.APIUIShowImage, presp)
	vurl := oi.CallAPI(air.APIJSONGet, oi.Param(0), oi.ConstStr("advisor.video_still"))
	vreq := oi.CallAPI(air.APIHTTPNewRequest, oi.ConstStr("GET"))
	oi.CallAPI(air.APIHTTPSetURL, vreq, vurl)
	vresp := oi.CallAPI(air.APIHTTPExecute, vreq)
	oi.CallAPI(air.APIUIShowImage, vresp)
	oi.CallAPI(air.APIUIRender, oi.ConstStr("advisor"))
	oi.Done()

	o := adv.Method("open", 0)
	oid := o.CallAPI(air.APIIntentGet, o.ConstStr("po.sel"))
	obs := o.CallAPI(air.APIRxJust, oid)
	mapped := o.CallAPI(air.APIRxMap, obs, o.ConstStr("POAdvisor.fetchInfo"))
	o.CallAPI(air.APIRxSubscribe, mapped, o.ConstStr("POAdvisor.onInfo"))
	o.Done()

	buildPurpleOceanExtras(pb)

	prog := pb.MustBuild()
	a := &apk.APK{
		Manifest: apk.Manifest{
			Package:         "com.purpleocean.example",
			Label:           "Purple Ocean",
			Version:         "3.1.0",
			Category:        "Psychic reading",
			LaunchHandler:   "POMain.launch",
			LaunchScreen:    "advisors",
			MainInteraction: "Loads an advisor page",
		},
		Screens: []apk.Screen{
			{Name: "advisors", Widgets: []apk.Widget{
				{ID: "advisor", Kind: apk.ListItem, Handler: "POMain.onSelectAdvisor", MaxIndex: poAdvisorN, Target: "advisor", Main: true},
			}},
			{Name: "advisor", Widgets: []apk.Widget{{ID: "back", Kind: apk.Back}}},
		},
		Program: prog,
	}
	extraScreens, advisorsExtras := purpleOceanExtraScreens()
	a.Screens[0].Widgets = append(a.Screens[0].Widgets, advisorsExtras...)
	a.Screens = append(a.Screens, extraScreens...)
	a.Manifest.ServiceEntries = purpleOceanServiceEntries()
	if err := a.Validate(); err != nil {
		panic(err)
	}
	return &App{
		Name:  "purpleocean",
		APK:   a,
		Hosts: []string{poAPIHost, poImgHost},
		HostRTT: map[string]time.Duration{
			poAPIHost: 230 * time.Millisecond, // Table 2: advisor information
			poImgHost: 15 * time.Millisecond,  // Table 2: profile/video images
		},
		RenderDelay: map[string]time.Duration{
			"advisors": 2200 * time.Millisecond,
			"advisor":  800 * time.Millisecond, // large processing delay, §6.2
		},
		Handler:    purpleOceanHandler,
		MainScreen: "advisors",
		MainPath:   "/api/advisor/get",
	}
}

func purpleOceanHandler(scale float64) http.Handler {
	advisorIDs := ids("po-advisors", poAdvisorN)
	known := map[string]bool{}
	for _, id := range advisorIDs {
		known[id] = true
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/api/advisors", func(w http.ResponseWriter, r *http.Request) {
		sleepScaled(30*time.Millisecond, scale)
		advisors := make([]any, len(advisorIDs))
		for i, id := range advisorIDs {
			advisors[i] = map[string]any{"id": id, "name": "advisor-" + id, "rating": 4.8}
		}
		w.Header().Set("Set-Cookie", "posid=p"+advisorIDs[0]+"; Path=/")
		writeJSON(w, map[string]any{"advisors": advisors, "filler": pad(1800)})
	})
	mux.HandleFunc("/api/advisor/get", func(w http.ResponseWriter, r *http.Request) {
		r.ParseForm()
		aid := r.PostFormValue("advisor_id")
		if !known[aid] {
			writeErr(w, http.StatusNotFound, "unknown advisor")
			return
		}
		sleepScaled(35*time.Millisecond, scale)
		writeJSON(w, map[string]any{"advisor": map[string]any{
			"id":            aid,
			"profile_image": "http://" + poImgHost + "/prof?aid=" + aid,
			"video_still":   "http://" + poImgHost + "/still?aid=" + aid,
			"bio":           pad(6000),
		}})
	})
	mux.HandleFunc("/athumb", func(w http.ResponseWriter, r *http.Request) {
		aid := r.URL.Query().Get("aid")
		if aid == "" {
			writeErr(w, http.StatusBadRequest, "missing aid")
			return
		}
		writeImage(w, r, "po-thumb-"+aid, 25*1000)
	})
	mux.HandleFunc("/prof", func(w http.ResponseWriter, r *http.Request) {
		aid := r.URL.Query().Get("aid")
		if !known[aid] {
			writeErr(w, http.StatusNotFound, "unknown advisor")
			return
		}
		writeImage(w, r, "po-prof-"+aid, 50*1000)
	})
	mux.HandleFunc("/still", func(w http.ResponseWriter, r *http.Request) {
		aid := r.URL.Query().Get("aid")
		if !known[aid] {
			writeErr(w, http.StatusNotFound, "unknown advisor")
			return
		}
		writeImage(w, r, "po-still-"+aid, 60*1000)
	})
	registerPurpleOceanExtraRoutes(mux, scale)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeErr(w, http.StatusNotFound, "purpleocean: no route "+r.URL.Path)
	})
	return mux
}
