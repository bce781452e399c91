// AB3 — ablation: XML parse + Monet-transform (shred) throughput and
// storage profile versus document size.
//
// Three timings per size: parsing the text into a DOM (xml::Parse),
// shredding that DOM (model::Shred, the generators' path) and shredding
// the text directly (model::ShredXmlText, the load path, which parses
// into the shredder and builds no DOM); knodes/sec is ShredXmlText's.
//
// The paper bulk-loads DBLP into Monet XML "as described in [19]"; this
// harness shows our substrate does the same job at scale: parse and
// shred times should grow linearly with document size, and the path
// summary (relation catalog) stays tiny and roughly constant once the
// schema is saturated.

#include <cstdio>

#include "data/dblp_gen.h"
#include "model/shredder.h"
#include "util/timer.h"
#include "xml/parser.h"
#include "xml/serializer.h"

using namespace meetxml;

int main() {
  std::printf("# AB3: parse + shred scaling on DBLP-shaped documents\n");
  std::printf("# %-10s %10s %10s %10s %10s %10s %10s %12s\n", "papers/yr",
              "xml_MB", "nodes", "paths", "parse_ms", "dom_shr_ms",
              "xml_shr_ms", "knodes/sec");

  for (int scale : {5, 15, 50, 150, 400}) {
    data::DblpOptions options;
    options.icde_papers_per_year = scale;
    options.other_papers_per_year = scale * 3;
    options.journal_articles_per_year = scale;
    auto generated = data::GenerateDblp(options);
    MEETXML_CHECK_OK(generated.status());
    xml::SerializeOptions serialize_options;
    serialize_options.indent = 1;
    std::string xml_text = xml::Serialize(*generated, serialize_options);

    util::Timer parse_timer;
    auto parsed = xml::Parse(xml_text);
    MEETXML_CHECK_OK(parsed.status());
    double parse_ms = parse_timer.ElapsedMillis();

    util::Timer dom_shred_timer;
    auto from_dom = model::Shred(*parsed);
    MEETXML_CHECK_OK(from_dom.status());
    double dom_shred_ms = dom_shred_timer.ElapsedMillis();

    util::Timer text_shred_timer;
    auto from_text = model::ShredXmlText(xml_text);
    MEETXML_CHECK_OK(from_text.status());
    double text_shred_ms = text_shred_timer.ElapsedMillis();

    double knodes_per_sec =
        static_cast<double>(from_text->node_count()) /
        (text_shred_ms / 1000.0) / 1000.0;
    std::printf("  %-10d %10.1f %10zu %10zu %10.1f %10.1f %10.1f %12.0f\n",
                scale, static_cast<double>(xml_text.size()) / 1e6,
                from_text->node_count(), from_text->paths().size(),
                parse_ms, dom_shred_ms, text_shred_ms, knodes_per_sec);
  }
  std::printf("# expected shape: parse+shred linear in size; path count "
              "saturates at the schema size\n");
  return 0;
}
