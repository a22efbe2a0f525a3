package apps

import (
	"net/http"
	"time"

	"appx/internal/air"
	"appx/internal/apk"
)

const (
	ddAPIHost = "api.doordash.example"
	ddImgHost = "img.doordash.example"
	ddStoreN  = 16
	ddMenuN   = 12
)

// DoorDash builds the food-delivery app with the paper's Figure-11
// successive dependency chain: store list → store info → menu → menu item →
// suggestion, each request keyed by an id from the previous response. The
// main interaction ("Loads a restaurant info", Table 1) issues the store
// info, schedule, and menu transactions.
func DoorDash() *App {
	pb := air.NewProgramBuilder()
	main := pb.Class("DDMain", air.KindActivity)

	m := main.Method("launch", 0)
	req := m.CallAPI(air.APIHTTPNewRequest, m.ConstStr("GET"))
	m.CallAPI(air.APIHTTPSetURL, req, m.ConstStr("http://"+ddAPIHost+"/v2/stores"))
	m.CallAPI(air.APIHTTPAddHeader, req, m.ConstStr("User-Agent"), m.CallAPI(air.APIDeviceUserAgent))
	resp := m.CallAPI(air.APIHTTPExecute, req)
	body := m.CallAPI(air.APIHTTPRespBody, resp)
	m.CallAPI(air.APIIntentPut, m.ConstStr("dd.stores"), body)
	sids := m.CallAPI(air.APIJSONGet, body, m.ConstStr("stores[*].id"))
	m.ForEach(sids, "DDMain.loadStoreImage")
	m.CallAPI(air.APIUIRender, m.ConstStr("stores"))
	m.Done()

	li := main.Method("loadStoreImage", 1)
	lreq := li.CallAPI(air.APIHTTPNewRequest, li.ConstStr("GET"))
	li.CallAPI(air.APIHTTPSetURL, lreq, li.StrConcat("http://"+ddImgHost+"/simg?sid=", li.Param(0)))
	lresp := li.CallAPI(air.APIHTTPExecute, lreq)
	li.CallAPI(air.APIUIShowImage, lresp)
	li.Done()

	sel := main.Method("onSelectStore", 1)
	stores := sel.CallAPI(air.APIIntentGet, sel.ConstStr("dd.stores"))
	ids := sel.CallAPI(air.APIJSONGet, stores, sel.ConstStr("stores[*].id"))
	sid := sel.CallAPI(air.APIListGet, ids, sel.Param(0))
	sel.CallAPI(air.APIIntentPut, sel.ConstStr("dd.sel"), sid)
	sel.Invoke("DDStore.open")
	sel.Done()

	store := pb.Class("DDStore", air.KindActivity)
	s := store.Method("open", 0)
	sid2 := s.CallAPI(air.APIIntentGet, s.ConstStr("dd.sel"))
	sreq := s.CallAPI(air.APIHTTPNewRequest, s.ConstStr("GET"))
	s.CallAPI(air.APIHTTPSetURL, sreq, s.ConstStr("http://"+ddAPIHost+"/v2/store"))
	s.CallAPI(air.APIHTTPAddQuery, sreq, s.ConstStr("store_id"), sid2)
	sresp := s.CallAPI(air.APIHTTPExecute, sreq)
	sbody := s.CallAPI(air.APIHTTPRespBody, sresp)
	// Restaurant schedule (the second Table-2 transaction).
	screq := s.CallAPI(air.APIHTTPNewRequest, s.ConstStr("GET"))
	s.CallAPI(air.APIHTTPSetURL, screq, s.ConstStr("http://"+ddAPIHost+"/v2/schedule"))
	s.CallAPI(air.APIHTTPAddQuery, screq, s.ConstStr("store_id"), sid2)
	s.CallAPI(air.APIHTTPExecute, screq)
	// Menu keyed by the store response.
	menuID := s.CallAPI(air.APIJSONGet, sbody, s.ConstStr("store.menu_id"))
	mreq := s.CallAPI(air.APIHTTPNewRequest, s.ConstStr("GET"))
	s.CallAPI(air.APIHTTPSetURL, mreq, s.ConstStr("http://"+ddAPIHost+"/v2/menu"))
	s.CallAPI(air.APIHTTPAddQuery, mreq, s.ConstStr("menu_id"), menuID)
	mresp := s.CallAPI(air.APIHTTPExecute, mreq)
	mbody := s.CallAPI(air.APIHTTPRespBody, mresp)
	s.CallAPI(air.APIIntentPut, s.ConstStr("dd.menu"), mbody)
	s.CallAPI(air.APIUIRender, s.ConstStr("store"))
	s.Done()

	osel := store.Method("onSelectItem", 1)
	menu := osel.CallAPI(air.APIIntentGet, osel.ConstStr("dd.menu"))
	mids := osel.CallAPI(air.APIJSONGet, menu, osel.ConstStr("menu.items[*].id"))
	mid := osel.CallAPI(air.APIListGet, mids, osel.Param(0))
	osel.CallAPI(air.APIIntentPut, osel.ConstStr("dd.item"), mid)
	osel.Invoke("DDItem.open")
	osel.Done()

	item := pb.Class("DDItem", air.KindActivity)
	it := item.Method("open", 0)
	iid := it.CallAPI(air.APIIntentGet, it.ConstStr("dd.item"))
	ireq := it.CallAPI(air.APIHTTPNewRequest, it.ConstStr("GET"))
	it.CallAPI(air.APIHTTPSetURL, ireq, it.ConstStr("http://"+ddAPIHost+"/v2/item"))
	it.CallAPI(air.APIHTTPAddQuery, ireq, it.ConstStr("item_id"), iid)
	iresp := it.CallAPI(air.APIHTTPExecute, ireq)
	ibody := it.CallAPI(air.APIHTTPRespBody, iresp)
	// Suggestion keyed by the item response (Figure 11's last hop).
	sugID := it.CallAPI(air.APIJSONGet, ibody, it.ConstStr("item.suggest_key"))
	sgreq := it.CallAPI(air.APIHTTPNewRequest, it.ConstStr("GET"))
	it.CallAPI(air.APIHTTPSetURL, sgreq, it.ConstStr("http://"+ddAPIHost+"/v2/suggest"))
	it.CallAPI(air.APIHTTPAddQuery, sgreq, it.ConstStr("item_id"), sugID)
	it.CallAPI(air.APIHTTPExecute, sgreq)
	it.CallAPI(air.APIUIRender, it.ConstStr("item"))
	it.Done()

	buildDoorDashExtras(pb)

	prog := pb.MustBuild()
	a := &apk.APK{
		Manifest: apk.Manifest{
			Package:         "com.doordash.example",
			Label:           "DoorDash",
			Version:         "5.0.2",
			Category:        "Food delivery",
			LaunchHandler:   "DDMain.launch",
			LaunchScreen:    "stores",
			MainInteraction: "Loads a restaurant info.",
		},
		Screens: []apk.Screen{
			{Name: "stores", Widgets: []apk.Widget{
				{ID: "store", Kind: apk.ListItem, Handler: "DDMain.onSelectStore", MaxIndex: ddStoreN, Target: "store", Main: true},
			}},
			{Name: "store", Widgets: []apk.Widget{
				{ID: "menu-item", Kind: apk.ListItem, Handler: "DDStore.onSelectItem", MaxIndex: ddMenuN, Target: "item"},
				{ID: "back", Kind: apk.Back},
			}},
			{Name: "item", Widgets: []apk.Widget{{ID: "back", Kind: apk.Back}}},
		},
		Program: prog,
	}
	extraScreens, storesExtras := doorDashExtraScreens()
	a.Screens[0].Widgets = append(a.Screens[0].Widgets, storesExtras...)
	a.Screens = append(a.Screens, extraScreens...)
	a.Manifest.ServiceEntries = doorDashServiceEntries()
	if err := a.Validate(); err != nil {
		panic(err)
	}
	return &App{
		Name:  "doordash",
		APK:   a,
		Hosts: []string{ddAPIHost, ddImgHost},
		HostRTT: map[string]time.Duration{
			ddAPIHost: 145 * time.Millisecond, // Table 2: menu & schedule
			ddImgHost: 145 * time.Millisecond,
		},
		RenderDelay: map[string]time.Duration{
			"stores": 3200 * time.Millisecond,
			"store":  600 * time.Millisecond,
			"item":   300 * time.Millisecond,
		},
		Handler:    doordashHandler,
		MainScreen: "stores",
		MainPath:   "/v2/store",
	}
}

func doordashHandler(scale float64) http.Handler {
	storeIDs := ids("dd-stores", ddStoreN)
	knownStore := map[string]bool{}
	for _, id := range storeIDs {
		knownStore[id] = true
	}
	menuItems := map[string][]string{}
	for _, sid := range storeIDs {
		menuItems["menu-"+sid] = ids("dd-menu-"+sid, ddMenuN)
	}
	knownItem := map[string]bool{}
	for _, items := range menuItems {
		for _, id := range items {
			knownItem[id] = true
		}
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/v2/stores", func(w http.ResponseWriter, r *http.Request) {
		sleepScaled(30*time.Millisecond, scale)
		stores := make([]any, len(storeIDs))
		for i, id := range storeIDs {
			stores[i] = map[string]any{"id": id, "name": "store-" + id}
		}
		w.Header().Set("Set-Cookie", "dsid=d"+storeIDs[0]+"; Path=/")
		writeJSON(w, map[string]any{"stores": stores, "filler": pad(2500)})
	})
	mux.HandleFunc("/v2/store", func(w http.ResponseWriter, r *http.Request) {
		sid := r.URL.Query().Get("store_id")
		if !knownStore[sid] {
			writeErr(w, http.StatusNotFound, "unknown store")
			return
		}
		sleepScaled(25*time.Millisecond, scale)
		writeJSON(w, map[string]any{"store": map[string]any{
			"id": sid, "menu_id": "menu-" + sid, "info": pad(5000),
		}})
	})
	mux.HandleFunc("/v2/schedule", func(w http.ResponseWriter, r *http.Request) {
		if !knownStore[r.URL.Query().Get("store_id")] {
			writeErr(w, http.StatusNotFound, "unknown store")
			return
		}
		sleepScaled(20*time.Millisecond, scale)
		writeJSON(w, map[string]any{"schedule": map[string]any{"open": "09:00", "close": "22:00", "filler": pad(1000)}})
	})
	mux.HandleFunc("/v2/menu", func(w http.ResponseWriter, r *http.Request) {
		mid := r.URL.Query().Get("menu_id")
		items, ok := menuItems[mid]
		if !ok {
			writeErr(w, http.StatusNotFound, "unknown menu")
			return
		}
		sleepScaled(25*time.Millisecond, scale)
		out := make([]any, len(items))
		for i, id := range items {
			out[i] = map[string]any{"id": id, "name": "dish-" + id, "price": 995 + i}
		}
		writeJSON(w, map[string]any{"menu": map[string]any{"id": mid, "items": out, "filler": pad(4000)}})
	})
	mux.HandleFunc("/v2/item", func(w http.ResponseWriter, r *http.Request) {
		iid := r.URL.Query().Get("item_id")
		if !knownItem[iid] {
			writeErr(w, http.StatusNotFound, "unknown item")
			return
		}
		sleepScaled(20*time.Millisecond, scale)
		writeJSON(w, map[string]any{"item": map[string]any{
			"id": iid, "suggest_key": iid, "desc": pad(3000),
		}})
	})
	mux.HandleFunc("/v2/suggest", func(w http.ResponseWriter, r *http.Request) {
		if !knownItem[r.URL.Query().Get("item_id")] {
			writeErr(w, http.StatusNotFound, "unknown item")
			return
		}
		sleepScaled(20*time.Millisecond, scale)
		writeJSON(w, map[string]any{"suggestions": []any{"fries", "soda"}, "filler": pad(1500)})
	})
	mux.HandleFunc("/simg", func(w http.ResponseWriter, r *http.Request) {
		sid := r.URL.Query().Get("sid")
		if sid == "" {
			writeErr(w, http.StatusBadRequest, "missing sid")
			return
		}
		writeImage(w, r, "dd-simg-"+sid, 80*1000)
	})
	registerDoorDashExtraRoutes(mux, scale, storeIDs)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeErr(w, http.StatusNotFound, "doordash: no route "+r.URL.Path)
	})
	return mux
}
