package apps

import (
	"fmt"
	"net/http"
	"time"

	"appx/internal/air"
	"appx/internal/apk"
)

// Wish hosts and payload sizes (§6.2: product images ~315 KB, other
// transactions ~14 KB).
const (
	wishAPIHost  = "api.wish.example"
	wishImgHost  = "img.wish.example"
	wishThumbKB  = 40
	wishImageKB  = 315
	wishDetailKB = 10
	wishFeedN    = 30
)

// Wish builds the Wish-like shopping app: the paper's working example
// (Figures 1–3 and 5). Start page = recommended feed + thumbnails; selecting
// an item loads details (branch-conditional `credit_id` body field, Figure 8)
// and related items through an Rx pipeline; the merchant page issues a
// multi-hop chain (merchant info → ratings + profile image) with the
// merchant context passed through a heap object (alias analysis) and the
// selected item id passed through an Intent.
func Wish() *App {
	pb := air.NewProgramBuilder()

	main := pb.Class("WishMain", air.KindActivity)

	// launch: POST /api/get-feed, store the body, fetch every thumbnail.
	m := main.Method("launch", 0)
	req := m.CallAPI(air.APIHTTPNewRequest, m.ConstStr("POST"))
	m.CallAPI(air.APIHTTPSetURL, req, m.ConstStr("http://"+wishAPIHost+"/api/get-feed"))
	m.CallAPI(air.APIHTTPAddHeader, req, m.ConstStr("User-Agent"), m.CallAPI(air.APIDeviceUserAgent))
	m.CallAPI(air.APIHTTPAddHeader, req, m.ConstStr("Cookie"), m.CallAPI(air.APIDeviceCookie, m.ConstStr(wishAPIHost)))
	m.CallAPI(air.APIHTTPSetBodyField, req, m.ConstStr("offset"), m.ConstStr("0"))
	m.CallAPI(air.APIHTTPSetBodyField, req, m.ConstStr("count"), m.ConstStr("30"))
	m.CallAPI(air.APIHTTPSetBodyField, req, m.ConstStr("_ver"), m.CallAPI(air.APIDeviceVersion))
	m.CallAPI(air.APIHTTPSetBodyField, req, m.ConstStr("_build"), m.ConstStr("amazon"))
	resp := m.CallAPI(air.APIHTTPExecute, req)
	body := m.CallAPI(air.APIHTTPRespBody, resp)
	m.CallAPI(air.APIIntentPut, m.ConstStr("wish.feed"), body)
	idsReg := m.CallAPI(air.APIJSONGet, body, m.ConstStr("data.products[*].product_info.id"))
	m.ForEach(idsReg, "WishMain.loadThumb")
	m.CallAPI(air.APIUIRender, m.ConstStr("feed"))
	m.Done()

	// loadThumb: GET img host /img?cid=<id>.
	th := main.Method("loadThumb", 1)
	treq := th.CallAPI(air.APIHTTPNewRequest, th.ConstStr("GET"))
	turl := th.StrConcat("http://"+wishImgHost+"/img?cid=", th.Param(0))
	th.CallAPI(air.APIHTTPSetURL, treq, turl)
	tresp := th.CallAPI(air.APIHTTPExecute, treq)
	th.CallAPI(air.APIUIShowImage, tresp)
	th.Done()

	// onSelectItem(position): resolve the id and hand it to the detail
	// activity through an Intent.
	sel := main.Method("onSelectItem", 1)
	feed := sel.CallAPI(air.APIIntentGet, sel.ConstStr("wish.feed"))
	sids := sel.CallAPI(air.APIJSONGet, feed, sel.ConstStr("data.products[*].product_info.id"))
	sid := sel.CallAPI(air.APIListGet, sids, sel.Param(0))
	sel.CallAPI(air.APIIntentPut, sel.ConstStr("wish.sel"), sid)
	sel.Invoke("WishDetail.open")
	sel.Done()

	det := pb.Class("WishDetail", air.KindActivity)

	// open: product detail + related (via Rx) + product image (URL taken
	// from the detail response).
	d := det.Method("open", 0)
	id := d.CallAPI(air.APIIntentGet, d.ConstStr("wish.sel"))
	dreq := d.CallAPI(air.APIHTTPNewRequest, d.ConstStr("POST"))
	d.CallAPI(air.APIHTTPSetURL, dreq, d.ConstStr("http://"+wishAPIHost+"/product/get"))
	d.CallAPI(air.APIHTTPAddHeader, dreq, d.ConstStr("User-Agent"), d.CallAPI(air.APIDeviceUserAgent))
	d.CallAPI(air.APIHTTPAddHeader, dreq, d.ConstStr("Cookie"), d.CallAPI(air.APIDeviceCookie, d.ConstStr(wishAPIHost)))
	d.CallAPI(air.APIHTTPSetBodyField, dreq, d.ConstStr("cid"), id)
	d.CallAPI(air.APIHTTPSetBodyField, dreq, d.ConstStr("_client"), d.ConstStr("android"))
	d.CallAPI(air.APIHTTPSetBodyField, dreq, d.ConstStr("_ver"), d.CallAPI(air.APIDeviceVersion))
	d.CallAPI(air.APIHTTPSetBodyField, dreq, d.ConstStr("_xsrf"), d.ConstStr("1"))
	skip := d.Block()
	cont := d.Block()
	noCredit := d.CallAPI(air.APIDeviceFlag, d.ConstStr("no_credit"))
	d.If(noCredit, skip)
	d.CallAPI(air.APIHTTPSetBodyField, dreq, d.ConstStr("credit_id"), d.CallAPI(air.APIDeviceLocale))
	d.Goto(cont)
	d.Enter(skip)
	d.Goto(cont)
	d.Enter(cont)
	dresp := d.CallAPI(air.APIHTTPExecute, dreq)
	dbody := d.CallAPI(air.APIHTTPRespBody, dresp)
	d.CallAPI(air.APIIntentPut, d.ConstStr("wish.detail"), dbody)
	// Related items through an Rx pipeline.
	obs := d.CallAPI(air.APIRxJust, id)
	d.CallAPI(air.APIRxSubscribe, obs, d.ConstStr("WishDetail.loadRelated"))
	// Product image: the URL comes from the detail response.
	iurl := d.CallAPI(air.APIJSONGet, dbody, d.ConstStr("data.product.image"))
	ireq := d.CallAPI(air.APIHTTPNewRequest, d.ConstStr("GET"))
	d.CallAPI(air.APIHTTPSetURL, ireq, iurl)
	iresp := d.CallAPI(air.APIHTTPExecute, ireq)
	d.CallAPI(air.APIUIShowImage, iresp)
	d.CallAPI(air.APIUIRender, d.ConstStr("detail"))
	d.Done()

	rel := det.Method("loadRelated", 1)
	rreq := rel.CallAPI(air.APIHTTPNewRequest, rel.ConstStr("POST"))
	rel.CallAPI(air.APIHTTPSetURL, rreq, rel.ConstStr("http://"+wishAPIHost+"/related/get"))
	rel.CallAPI(air.APIHTTPAddHeader, rreq, rel.ConstStr("Cookie"), rel.CallAPI(air.APIDeviceCookie, rel.ConstStr(wishAPIHost)))
	rel.CallAPI(air.APIHTTPSetBodyField, rreq, rel.ConstStr("cid"), rel.Param(0))
	rel.CallAPI(air.APIHTTPSetBodyField, rreq, rel.ConstStr("_client"), rel.ConstStr("android"))
	rel.CallAPI(air.APIHTTPExecute, rreq)
	rel.Done()

	// onOpenMerchant: merchant info → (ratings + profile image) via a
	// context object crossing method boundaries (alias analysis, §4.1).
	om := det.Method("onOpenMerchant", 0)
	ddoc := om.CallAPI(air.APIIntentGet, om.ConstStr("wish.detail"))
	mname := om.CallAPI(air.APIJSONGet, ddoc, om.ConstStr("data.product.merchant"))
	mreq := om.CallAPI(air.APIHTTPNewRequest, om.ConstStr("GET"))
	om.CallAPI(air.APIHTTPSetURL, mreq, om.ConstStr("http://"+wishAPIHost+"/api/merchant"))
	om.CallAPI(air.APIHTTPAddQuery, mreq, om.ConstStr("m"), mname)
	mresp := om.CallAPI(air.APIHTTPExecute, mreq)
	mbody := om.CallAPI(air.APIHTTPRespBody, mresp)
	ctx := om.NewObject("MerchantCtx")
	om.IPut(ctx, "id", om.CallAPI(air.APIJSONGet, mbody, om.ConstStr("data.merchant.id")))
	om.IPut(ctx, "img", om.CallAPI(air.APIJSONGet, mbody, om.ConstStr("data.merchant.image")))
	om.Invoke("WishDetail.loadRatings", ctx)
	om.Invoke("WishDetail.loadProfileImage", ctx)
	om.CallAPI(air.APIUIRender, om.ConstStr("merchant"))
	om.Done()

	lr := det.Method("loadRatings", 1)
	lid := lr.IGet(lr.Param(0), "id")
	lreq := lr.CallAPI(air.APIHTTPNewRequest, lr.ConstStr("GET"))
	lr.CallAPI(air.APIHTTPSetURL, lreq, lr.ConstStr("http://"+wishAPIHost+"/api/ratings/get"))
	lr.CallAPI(air.APIHTTPAddQuery, lreq, lr.ConstStr("id"), lid)
	lr.CallAPI(air.APIHTTPExecute, lreq)
	lr.Done()

	lp := det.Method("loadProfileImage", 1)
	purl := lp.IGet(lp.Param(0), "img")
	preq := lp.CallAPI(air.APIHTTPNewRequest, lp.ConstStr("GET"))
	lp.CallAPI(air.APIHTTPSetURL, preq, purl)
	presp := lp.CallAPI(air.APIHTTPExecute, preq)
	lp.CallAPI(air.APIUIShowImage, presp)
	lp.Done()

	buildWishExtras(pb)

	prog := pb.MustBuild()
	a := &apk.APK{
		Manifest: apk.Manifest{
			Package:         "com.wish.example",
			Label:           "Wish",
			Version:         "4.13.0",
			Category:        "Shopping",
			LaunchHandler:   "WishMain.launch",
			LaunchScreen:    "feed",
			MainInteraction: "Loads an item detail",
		},
		Screens: []apk.Screen{
			{Name: "feed", Widgets: []apk.Widget{
				{ID: "item", Kind: apk.ListItem, Handler: "WishMain.onSelectItem", MaxIndex: wishFeedN, Target: "detail", Main: true},
			}},
			{Name: "detail", Widgets: []apk.Widget{
				{ID: "merchant", Kind: apk.Button, Handler: "WishDetail.onOpenMerchant", Target: "merchant"},
				{ID: "back", Kind: apk.Back},
			}},
			{Name: "merchant", Widgets: []apk.Widget{
				{ID: "back", Kind: apk.Back},
			}},
		},
		Program: prog,
	}
	extraScreens, feedExtras, detailExtras := wishExtraScreens()
	a.Screens[0].Widgets = append(a.Screens[0].Widgets, feedExtras...)
	a.Screens[1].Widgets = append(a.Screens[1].Widgets, detailExtras...)
	a.Screens = append(a.Screens, extraScreens...)
	a.Manifest.ServiceEntries = wishServiceEntries()
	if err := a.Validate(); err != nil {
		panic(err)
	}

	return &App{
		Name:  "wish",
		APK:   a,
		Hosts: []string{wishAPIHost, wishImgHost},
		HostRTT: map[string]time.Duration{
			wishAPIHost: 165 * time.Millisecond, // Table 2: product detail
			wishImgHost: 16 * time.Millisecond,  // Table 2: product image
		},
		RenderDelay: map[string]time.Duration{
			"feed":     2000 * time.Millisecond, // Fig 14 processing slice
			"detail":   400 * time.Millisecond,  // Fig 13 processing slice
			"merchant": 500 * time.Millisecond,
		},
		Handler:    wishHandler,
		MainScreen: "feed",
		MainPath:   "/product/get",
	}
}

// wishHandler implements the Wish origin API.
func wishHandler(scale float64) http.Handler {
	feedIDs := ids("wish-feed", wishFeedN)
	known := map[string]bool{}
	for _, id := range feedIDs {
		known[id] = true
	}
	// Related items reference further ids; make them servable too.
	relIDs := ids("wish-related", 8)
	for _, id := range relIDs {
		known[id] = true
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/api/get-feed", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeErr(w, http.StatusMethodNotAllowed, "POST required")
			return
		}
		sleepScaled(25*time.Millisecond, scale)
		products := make([]any, len(feedIDs))
		for i, id := range feedIDs {
			products[i] = map[string]any{
				"aspect_rat": 1.2,
				"product_info": map[string]any{
					"id":       id,
					"can_ship": true,
				},
				"thumb": "http://" + wishImgHost + "/img?cid=" + id,
			}
		}
		w.Header().Set("Set-Cookie", "bsid=w"+feedIDs[0]+"; Path=/")
		writeJSON(w, map[string]any{"data": map[string]any{"products": products, "filler": pad(2000)}})
	})
	mux.HandleFunc("/product/get", func(w http.ResponseWriter, r *http.Request) {
		r.ParseForm()
		cid := r.PostFormValue("cid")
		if cid == "" || !known[cid] {
			writeErr(w, http.StatusNotFound, "unknown cid")
			return
		}
		sleepScaled(30*time.Millisecond, scale)
		writeJSON(w, map[string]any{"data": map[string]any{
			"product": map[string]any{
				"id":       cid,
				"merchant": "Silk-" + cid[:3],
				"image":    "http://" + wishImgHost + "/product-img?cid=" + cid,
				"price":    1999,
				"shipping": pad(wishDetailKB * 1000),
			},
		}})
	})
	mux.HandleFunc("/related/get", func(w http.ResponseWriter, r *http.Request) {
		r.ParseForm()
		cid := r.PostFormValue("cid")
		if cid == "" || !known[cid] {
			writeErr(w, http.StatusNotFound, "unknown cid")
			return
		}
		sleepScaled(20*time.Millisecond, scale)
		rel := make([]any, len(relIDs))
		for i, id := range relIDs {
			rel[i] = map[string]any{"id": id}
		}
		writeJSON(w, map[string]any{"data": map[string]any{"related": rel, "filler": pad(4000)}})
	})
	mux.HandleFunc("/api/merchant", func(w http.ResponseWriter, r *http.Request) {
		name := r.URL.Query().Get("m")
		if name == "" {
			writeErr(w, http.StatusBadRequest, "missing m")
			return
		}
		sleepScaled(25*time.Millisecond, scale)
		mid := "m" + ids("wish-merchant-"+name, 1)[0]
		writeJSON(w, map[string]any{"data": map[string]any{
			"merchant": map[string]any{
				"id":    mid,
				"name":  name,
				"image": "http://" + wishImgHost + "/prof?cid=" + mid,
				"items": []any{map[string]any{"id": feedIDs[0]}, map[string]any{"id": feedIDs[1]}},
			},
		}})
	})
	mux.HandleFunc("/api/ratings/get", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("id") == "" {
			writeErr(w, http.StatusBadRequest, "missing id")
			return
		}
		sleepScaled(20*time.Millisecond, scale)
		writeJSON(w, map[string]any{"data": map[string]any{"rating": 4.5, "count": 1234, "filler": pad(3000)}})
	})
	mux.HandleFunc("/img", func(w http.ResponseWriter, r *http.Request) {
		cid := r.URL.Query().Get("cid")
		if cid == "" {
			writeErr(w, http.StatusBadRequest, "missing cid")
			return
		}
		writeImage(w, r, "wish-thumb-"+cid, wishThumbKB*1000)
	})
	mux.HandleFunc("/product-img", func(w http.ResponseWriter, r *http.Request) {
		cid := r.URL.Query().Get("cid")
		if cid == "" || !known[cid] {
			writeErr(w, http.StatusNotFound, "unknown cid")
			return
		}
		writeImage(w, r, "wish-img-"+cid, wishImageKB*1000)
	})
	mux.HandleFunc("/prof", func(w http.ResponseWriter, r *http.Request) {
		writeImage(w, r, "wish-prof-"+r.URL.Query().Get("cid"), 30*1000)
	})
	registerWishExtraRoutes(mux, scale, feedIDs)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeErr(w, http.StatusNotFound, fmt.Sprintf("wish: no route %s %s", r.Method, r.URL.Path))
	})
	return mux
}
