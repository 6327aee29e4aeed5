// The paper's motivating scenario (Sec. 2.1): a European railway network,
// naturally fragmented by country, answering "what is the shortest
// connection between Amsterdam and Milan?" — and the observation that "in
// practice, queries about the shortest path of two cities in Holland can
// be answered by the Dutch railway computer system alone, even if the path
// goes outside the Dutch border."
//
// We build a small named network over Holland, Germany, Switzerland and
// Italy, fragment it by country (the "application's semantics"
// fragmentation the disconnection set approach assumes), and run both
// queries.
//
//   $ ./build/examples/railway
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "tcf/tcf.h"

namespace {

struct City {
  const char* name;
  const char* country;
  double x, y;
};

// Coordinates are rough map positions (x east, y north), weights below are
// rail distances in km (stylized).
const City kCities[] = {
    // Holland (country 0)
    {"Amsterdam", "NL", 4.9, 52.4},
    {"Utrecht", "NL", 5.1, 52.1},
    {"Rotterdam", "NL", 4.5, 51.9},
    {"Eindhoven", "NL", 5.5, 51.4},
    {"Arnhem", "NL", 5.9, 52.0},       // border station to Germany
    {"Maastricht", "NL", 5.7, 50.8},   // border station to Germany (south)
    // Germany (country 1)
    {"Duisburg", "DE", 6.8, 51.4},
    {"Koeln", "DE", 7.0, 50.9},
    {"Frankfurt", "DE", 8.7, 50.1},
    {"Stuttgart", "DE", 9.2, 48.8},
    {"Muenchen", "DE", 11.6, 48.1},
    {"Freiburg", "DE", 7.8, 48.0},     // border station to Switzerland
    // Switzerland (country 2)
    {"Basel", "CH", 7.6, 47.6},
    {"Zuerich", "CH", 8.5, 47.4},
    {"Bern", "CH", 7.4, 46.9},
    {"Lugano", "CH", 9.0, 46.0},       // border station to Italy
    // Italy (country 3)
    {"Como", "IT", 9.1, 45.8},
    {"Milano", "IT", 9.2, 45.5},
    {"Verona", "IT", 11.0, 45.4},
    {"Torino", "IT", 7.7, 45.1},
};

struct Track {
  const char* a;
  const char* b;
  double km;
};

const Track kTracks[] = {
    // Dutch network (dense).
    {"Amsterdam", "Utrecht", 37}, {"Amsterdam", "Rotterdam", 78},
    {"Utrecht", "Rotterdam", 56}, {"Utrecht", "Arnhem", 60},
    {"Utrecht", "Eindhoven", 88}, {"Rotterdam", "Eindhoven", 110},
    {"Eindhoven", "Maastricht", 86}, {"Amsterdam", "Arnhem", 100},
    {"Eindhoven", "Arnhem", 70},
    // NL <-> DE borders.
    {"Arnhem", "Duisburg", 40}, {"Maastricht", "Koeln", 60},
    // German network.
    {"Duisburg", "Koeln", 50}, {"Koeln", "Frankfurt", 190},
    {"Frankfurt", "Stuttgart", 210}, {"Stuttgart", "Muenchen", 250},
    {"Frankfurt", "Freiburg", 270}, {"Stuttgart", "Freiburg", 180},
    {"Koeln", "Stuttgart", 370},
    // DE <-> CH border.
    {"Freiburg", "Basel", 70},
    // Swiss network.
    {"Basel", "Zuerich", 87}, {"Basel", "Bern", 100},
    {"Bern", "Zuerich", 125}, {"Zuerich", "Lugano", 170},
    {"Bern", "Lugano", 230},
    // CH <-> IT border.
    {"Lugano", "Como", 32},
    // Italian network.
    {"Como", "Milano", 46}, {"Milano", "Verona", 148},
    {"Milano", "Torino", 141}, {"Verona", "Como", 190},
};

}  // namespace

int main() {
  using namespace tcf;

  // Build the graph and the by-country node blocks.
  std::map<std::string, NodeId> id_of;
  std::map<std::string, int> country_block = {
      {"NL", 0}, {"DE", 1}, {"CH", 2}, {"IT", 3}};
  GraphBuilder builder;
  std::vector<int> block_of_node;
  std::vector<std::string> name_of;
  for (const City& city : kCities) {
    id_of[city.name] = builder.AddNode({city.x, city.y});
    block_of_node.push_back(country_block[city.country]);
    name_of.push_back(city.name);
  }
  for (const Track& track : kTracks) {
    builder.AddSymmetricEdge(id_of[track.a], id_of[track.b], track.km);
  }
  Graph g = builder.Build();

  // Fragment by country — the natural, semantics-given fragmentation.
  Fragmentation by_country =
      FragmentationFromNodePartition(g, block_of_node, 4);
  std::printf("countries as fragments: %zu fragments, loosely connected: "
              "%s\n",
              by_country.NumFragments(),
              by_country.IsLooselyConnected() ? "yes" : "no");
  for (const DisconnectionSet& ds : by_country.disconnection_sets()) {
    std::printf("  border %u-%u:", ds.frag_a, ds.frag_b);
    for (NodeId v : ds.nodes) std::printf(" %s", name_of[v].c_str());
    std::printf("\n");
  }

  DsaDatabase db(&by_country);

  // Query 1: Amsterdam -> Milano, crossing three borders.
  ExecutionReport report;
  QueryAnswer answer =
      db.ShortestPath(id_of["Amsterdam"], id_of["Milano"], &report);
  std::printf("\nAmsterdam -> Milano: %.0f km over %zu fragment sites\n",
              answer.cost, report.sites.size());
  std::printf("oracle check: %.0f km\n",
              Dijkstra(g, id_of["Amsterdam"]).distance[id_of["Milano"]]);

  // Query 2: two Dutch cities; the best route may thread through Germany,
  // yet only the Dutch site computes (the complementary information about
  // the German detour is precomputed at the border).
  ExecutionReport dutch_report;
  QueryAnswer dutch = db.ShortestPath(id_of["Arnhem"],
                                      id_of["Maastricht"], &dutch_report);
  std::printf("\nArnhem -> Maastricht: %.0f km, computed by %zu site(s)\n",
              dutch.cost, dutch_report.sites.size());
  std::printf("staying inside Holland (Arnhem-Eindhoven-Maastricht) costs "
              "%.0f km; crossing\nthrough Duisburg-Koeln costs %.0f km. The "
              "Dutch site finds the German route\nalone: the border pair's "
              "shortest German transit is precomputed in its\n"
              "complementary information.\n",
              70.0 + 86.0, 40.0 + 50.0 + 60.0);
  std::printf("oracle check: %.0f km\n",
              Dijkstra(g, id_of["Arnhem"]).distance[id_of["Maastricht"]]);
  return 0;
}
